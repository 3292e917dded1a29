"""Correct sum program that answers 80 ms after each input.

It announces the remaining count before each read and prints the sum at
the end, like sum_progress_prog.py, but sleeps before every answer.  With
the argument ``select`` it sleeps in select() on no descriptors, as
time.sleep does before Python 3.11.
"""
import select
import sys
import time

DELAY_S = 0.08


def pause():
    if sys.argv[1:] == ["select"]:
        select.select([], [], [], DELAY_S)
    else:
        time.sleep(DELAY_S)


def main():
    n = int(sys.stdin.readline())
    total = 0
    for i in range(n):
        pause()
        print(n - i, flush=True)
        total += int(sys.stdin.readline())
    pause()
    print(total, flush=True)


if __name__ == "__main__":
    main()
