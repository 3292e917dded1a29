"""Seeded corpus of recorded traces whose verdicts are known by construction.

Three spec families, each checked against traces built here directly from
what the specification allows, never by the code under test:

* ``long``: ``tests/data/sum.iospec`` with n = LONG_N summands.  Accepted
  traces are concretizations (each optional progress count printed or not
  at random); rejected ones print a wrong final sum.
* ``skippable``: ``read x : ints`` then SKIP_K x ``write { eps, 1 }``.
  Accepted traces print between 0 and SKIP_K ones; rejected ones print one
  surplus ``!1``, which makes backtracking ``accept`` try every skip choice.
* ``wide``: ``read x : ints`` then WIDE_K x ``write { eps, x_C, x_C + 1 }``,
  whose fused output set holds 2^(WIDE_K+1) - 1 words.  Accepted traces
  print up to WIDE_K values from {x, x+1}; rejected ones put one value
  outside that set.  x is drawn from WIDE_X_RANGE, which leaves out
  WIDE_COLLIDING_X: in CPython hash(-1) == hash(-2), so for x = -2 all
  words of one length share a hash and interpret takes about 100 times
  longer.  One such check in a pass would outweigh every other check, so
  the benchmark times that case on its own instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from iospec import GenerationLimits, In, Out, Trace

LONG_N = 2000
SKIP_K = 14
WIDE_K = 12

SKIPPABLE_SPEC = "read x : ints\n" + "write { eps, 1 }\n" * SKIP_K
WIDE_SPEC = "read x : ints\n" + "write { eps, x_C, x_C + 1 }\n" * WIDE_K

# sum.iospec with LONG_N summands runs LONG_N + 1 loop rounds, past the
# default limit of 1000.
LONG_LIMITS = GenerationLimits(max_loop_iterations=4 * LONG_N, max_trace_length=8 * LONG_N)

# Checks per pass for each (family, known verdict).  The counts give each
# family about a third of a pass's time at the commit that introduced the
# benchmark (long ~84 ms a check; skippable ~0.2 ms accepted and ~16 ms
# rejected; wide ~12 ms accepted and ~45 ms rejected), so a regression in
# one family is not drowned out by the others.  Eight times the smallest
# such mix, so that a pass holds over 200 distinct checks and the tail
# percentile has ten of them beyond it at p95.
PASS_COUNTS = {
    ("long", True): 8,
    ("long", False): 8,
    ("skippable", True): 80,
    ("skippable", False): 80,
    ("wide", True): 24,
    ("wide", False): 24,
}
FAMILIES = ("long", "skippable", "wide")

VALUE_RANGE = (-10, 10)
WIDE_X_RANGE = (0, 10)
WIDE_COLLIDING_X = -2


@dataclass(frozen=True)
class Check:
    family: str
    trace: Trace
    expected: bool  # True iff the trace is a valid run of the family's spec


def _long(rng: random.Random, valid: bool) -> Trace:
    xs = [rng.randint(*VALUE_RANGE) for _ in range(LONG_N)]
    steps = [In(LONG_N)]
    for i, x in enumerate(xs):
        if rng.random() < 0.5:
            steps.append(Out(LONG_N - i))
        steps.append(In(x))
    total = sum(xs)
    if not valid:
        total += rng.choice((-1, 1)) * rng.randint(1, 5)
    steps.append(Out(total))
    return Trace(tuple(steps))


def _skippable(rng: random.Random, valid: bool) -> Trace:
    ones = rng.randint(0, SKIP_K) if valid else SKIP_K + 1
    return Trace((In(rng.randint(*VALUE_RANGE)),) + (Out(1),) * ones)


def _wide(rng: random.Random, valid: bool) -> Trace:
    x = rng.randint(*WIDE_X_RANGE)
    values = [x + rng.randint(0, 1) for _ in range(rng.randint(0 if valid else 1, WIDE_K))]
    if not valid:
        values[rng.randrange(len(values))] = x + rng.choice((-2, -1, 2, 3))
    return Trace((In(x),) + tuple(Out(v) for v in values))


_TRACE_MAKERS = {"long": _long, "skippable": _skippable, "wide": _wide}


def build_pass(seed: int) -> list[Check]:
    """PASS_COUNTS checks of every kind, in a shuffled order; deterministic
    in `seed`."""
    rng = random.Random(seed)
    checks = [
        Check(family, _TRACE_MAKERS[family](rng, valid), valid)
        for (family, valid), count in PASS_COUNTS.items()
        for _ in range(count)
    ]
    rng.shuffle(checks)
    return checks
