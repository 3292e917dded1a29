"""Faulty sum program: reads n, then n integers, prints their sum plus one.

Every round of sum.iospec falsifies it, including n = 0 (it prints 1).
"""
import sys


def main():
    n = int(sys.stdin.readline())
    total = 0
    for _ in range(n):
        total += int(sys.stdin.readline())
    print(total + 1, flush=True)


if __name__ == "__main__":
    main()
