"""Correct sum program that answers about 80 ms after each input.

Like tests/fixtures/sum_progress_prog.py it announces the remaining count
before each read and prints the sum at the end, but every answer comes
80 ms after the input it follows.  Every run it makes is a valid run of
sum.iospec, so the right verdict for it is AllPassed.
"""
import sys
import time

DELAY_S = 0.08


def main():
    n = int(sys.stdin.readline())
    total = 0
    for i in range(n):
        time.sleep(DELAY_S)
        print(n - i, flush=True)
        total += int(sys.stdin.readline())
    time.sleep(DELAY_S)
    print(total, flush=True)


if __name__ == "__main__":
    main()
