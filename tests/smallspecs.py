"""Every small specification, in order of size, and every short run of it:
bounded-exhaustive test data, as SmallCheck enumerates values (Runciman,
Naylor & Lindblad, 2008).

The alphabet:

* two variables, `x` and `y`; a read is ``read x : ints``, ``read x :
  nats`` or ``read y : ints``, so `y` is read but no term reads it;
* the terms `0`, `1`, `x_C`, `len(x_A)` and `sum(x_A)`, and one binary
  operator, `<`, which makes the conditions ``0 < x_C`` and ``len(x_A) <
  1`` from them;
* the writes ``write { 1 }``, ``write { eps, x_C }``, ``write {
  len(x_A) }``, ``write { eps, sum(x_A) }`` and the write of two values
  ``write { x_C, 1 }``;
* the statements read, write, ``if`` over either condition, ``loop`` and
  ``exit``.

A specification's size is its count of statements, an ``if`` or a
``loop`` counting one beside the statements inside it; a term counts
nothing, since each is a whole letter of the alphabet.  Specifications
come smallest first, and loops without an exit and exits outside all
loops are among them: `well_formed` tells those apart.

A run is an input sequence over {-1, 0, 1, 2}, and a trace of it prints
one word in each gap, of at most `max_word` values, each a value the
run's writes in that gap can print or one they cannot.
"""

import itertools
from functools import lru_cache

from iospec import (
    AllVar,
    Apply,
    Branch,
    CurrentVar,
    Exit,
    IntConst,
    Integers,
    Naturals,
    ReadInput,
    Spec,
    TillExit,
    Trace,
    WriteOutput,
)

X_C = CurrentVar("x")
LEN_X = Apply("len", (AllVar("x"),))
SUM_X = Apply("sum", (AllVar("x"),))

READS = (
    ReadInput("x", Integers()),
    ReadInput("x", Naturals()),
    ReadInput("y", Integers()),
)
WRITES = (
    WriteOutput((IntConst(1),)),
    WriteOutput((X_C,), includes_epsilon=True),
    WriteOutput((LEN_X,)),
    WriteOutput((SUM_X,), includes_epsilon=True),
    WriteOutput((X_C, IntConst(1))),
)
CONDITIONS = (
    Apply("<", (IntConst(0), X_C)),
    Apply("<", (LEN_X, IntConst(1))),
)

INPUT_VALUES = (-1, 0, 1, 2)


@lru_cache(maxsize=None)
def statements(size: int) -> tuple:
    """Every statement of exactly `size` statements."""
    found = list(READS + WRITES + (Exit(),)) if size == 1 else []
    found += [TillExit(Spec(body)) for body in sequences(size - 1)]
    for true_size in range(size):
        for condition in CONDITIONS:
            for true in sequences(true_size):
                for false in sequences(size - 1 - true_size):
                    found.append(Branch(condition, Spec(false), Spec(true)))
    return tuple(found)


@lru_cache(maxsize=None)
def sequences(size: int) -> tuple:
    """Every sequence of statements of `size` statements in all."""
    if size == 0:
        return ((),)
    return tuple(
        (first, *rest)
        for first_size in range(1, size + 1)
        for first in statements(first_size)
        for rest in sequences(size - first_size)
    )


def specs(max_size: int):
    """Every specification of at most `max_size` statements, smallest first."""
    for size in range(max_size + 1):
        for actions in sequences(size):
            yield Spec(actions)


def input_sequences(max_length: int):
    """Every sequence over INPUT_VALUES of at most `max_length` inputs,
    shortest first."""
    for length in range(max_length + 1):
        yield from itertools.product(INPUT_VALUES, repeat=length)


def traces(inputs: tuple, gaps, max_word: int):
    """Every trace of these inputs whose words have at most `max_word`
    values, each a value the factors of its gap in `gaps` can print, or
    one more than the largest of those and 2, which none can."""
    choices = []
    for gap in gaps:
        values = {value for factor in gap for word in factor for value in word}
        values.add(max(values | {2}) + 1)
        choices.append([
            word
            for length in range(max_word + 1)
            for word in itertools.product(sorted(values), repeat=length)
        ])
    for words in itertools.product(*choices):
        yield Trace._of(inputs, words)
