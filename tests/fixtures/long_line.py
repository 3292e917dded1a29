"""Writes one line of 1 MiB and one more byte, and never reads."""
import sys

sys.stdout.write("1" * ((1 << 20) + 1) + "\n")
