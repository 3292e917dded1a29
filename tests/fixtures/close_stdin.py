"""Closes stdin before its first output, then prints twice with a pause."""
import os
import time

os.close(0)
print(1, flush=True)
time.sleep(0.5)
print(2)
