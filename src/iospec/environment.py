"""Term evaluation over variable histories.

An environment maps each variable to all values read into it, oldest
first; a variable never read has the empty history.  The interpreter keeps
one mutable history per variable and appends as it reads, so evaluation
hands out copies wherever a history escapes into a registry function.
The default registry's own `len` and `sum` only read their argument, so
they get the stored history itself: aggregating over a history that grows
by one value a round then costs no copy each round.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .syntax import (
    AllVar,
    Apply,
    CurrentVar,
    DEFAULT_REGISTRY,
    FunctionRegistry,
    IntConst,
    Term,
    WriteOutput,
)
from .traces import EPSILON, OutputWordSet, Word


# Registry entries known not to mutate a history; compared by identity, so
# a user's override of the same name still gets a copy.
_LEN = DEFAULT_REGISTRY.lookup("len")
_SUM = DEFAULT_REGISTRY.lookup("sum")


class EvalError(Exception):
    """Term evaluation failed."""


class UnboundCurrentError(EvalError):
    """A current-value access on a variable that was never read.

    The static use-before-read check counts a read anywhere earlier in
    traversal order, even in a sibling branch, so a well-formed
    specification can still hit this on a run that takes the other branch.
    """

    def __init__(self, name: str):
        super().__init__(f"{name}_C has no value: nothing was read into {name!r}")
        self.name = name


def eval_term(
    term: Term,
    env: Mapping[str, Sequence[int]],
    registry: FunctionRegistry = DEFAULT_REGISTRY,
):
    """Evaluate a sort-correct term to an int, list of ints, or bool."""
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, CurrentVar):
        history = env.get(term.name)
        if not history:
            raise UnboundCurrentError(term.name)
        return history[-1]
    if isinstance(term, AllVar):
        return list(env.get(term.name, ()))
    if isinstance(term, Apply):
        fn = registry.lookup(term.fn)
        if fn is None:
            raise EvalError(f"unknown function {term.fn!r}")
        if (fn is _LEN or fn is _SUM) and isinstance(term.args[0], AllVar):
            return fn.fn(env.get(term.args[0].name, ()))
        args = [eval_term(a, env, registry) for a in term.args]
        return fn.fn(*args)
    raise EvalError(f"not a term: {term!r}")


def eval_output_set(
    write: WriteOutput,
    env: Mapping[str, Sequence[int]],
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> OutputWordSet:
    """All words the write may emit now, as a one-factor set: one-value
    words per term, and the empty word when the write is skippable.  Equal
    values collapse.  Back-to-back writes fuse by concatenating these
    factors (`OutputWordSet.concat`), never by enumerating their words."""
    words: set[Word] = {(eval_term(t, env, registry),) for t in write.terms}
    if write.includes_epsilon:
        words.add(EPSILON)
    return OutputWordSet(frozenset(words))
