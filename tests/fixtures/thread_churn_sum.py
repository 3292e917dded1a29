"""Sum program that prints the remaining count before each read, 100 ms
after its previous read, while a background thread sleeps 1 ms and then
starts and joins a thread that does nothing, over and over.

Threads come and go in it as they do in a JVM, a Go program or GHC's
threaded runtime, so a /proc probe of the program often lists a thread
that has ended before its files are read.  At most one short-lived thread
is alive at a time, and the program starts no processes.
"""
import sys
import threading
import time


def churn():
    while True:
        time.sleep(0.001)
        worker = threading.Thread(target=lambda: None)
        worker.start()
        worker.join()


def main():
    threading.Thread(target=churn, daemon=True).start()
    n = int(sys.stdin.readline())
    total = 0
    for i in range(n):
        time.sleep(0.1)
        print(n - i, flush=True)
        total += int(sys.stdin.readline())
    print(total, flush=True)


if __name__ == "__main__":
    main()
