"""Prints integers without end and never reads."""
while True:
    print(1)
