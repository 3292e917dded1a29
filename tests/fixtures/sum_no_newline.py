"""Reads n, then n integers, writes their sum with no newline after it."""
import sys


def main():
    n = int(sys.stdin.readline())
    total = 0
    for _ in range(n):
        total += int(sys.stdin.readline())
    sys.stdout.write(str(total))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
