"""Sum program with progress output that waits in select() before each read.

With the argument ``idle`` it first idles 80 ms in select() on a pipe of its
own, so it looks like a program waiting for input while the input it is
about to read already sits in stdin.
"""
import os
import select
import sys

IDLE_S = 0.08
IDLE_PIPE = os.pipe()[0]


def next_value():
    if sys.argv[1:] == ["idle"]:
        select.select([IDLE_PIPE], [], [], IDLE_S)
    select.select([sys.stdin], [], [])
    return int(sys.stdin.readline())


def main():
    n = next_value()
    total = 0
    for i in range(n):
        print(n - i, flush=True)
        total += next_value()
    print(total, flush=True)


if __name__ == "__main__":
    main()
