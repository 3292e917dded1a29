"""Term evaluation over variable histories, compiled once and run many times.

An environment maps each variable to all values read into it, oldest
first; a variable never read has the empty history.  The interpreter keeps
one mutable history per variable and appends as it reads, so evaluation
hands out copies wherever a history escapes into a registry function.
The default registry's own `len` and `sum` only read their argument, so
they get the stored history itself: aggregating over a history that grows
by one value a round then costs no copy each round.

A term is compiled against a registry into a function of the environment
(`compile_term`): each function application has its registry entry looked
up, and the copy-free aggregate chosen, once, at compile time.  Compiling
never fails on a bad term.  An unknown function or a value that is not a
term compiles to a function that raises `EvalError` when it is evaluated,
so a bad term on a path a run never takes raises nothing.  `eval_term` is
compile-then-run, for one-off evaluation.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

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
from .traces import EPSILON, OutputWordSet

Env = Mapping[str, Sequence[int]]

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


def _failing(message: str) -> Callable[[Env], object]:
    def fail(env: Env):
        raise EvalError(message)

    return fail


def compile_term(
    term: Term, registry: FunctionRegistry = DEFAULT_REGISTRY
) -> Callable[[Env], object]:
    """A function evaluating the sort-correct term to an int, list of ints
    or bool in a given environment."""
    if isinstance(term, IntConst):
        value = term.value
        return lambda env: value
    if isinstance(term, CurrentVar):
        name = term.name

        def current(env: Env):
            history = env.get(name)
            if not history:
                raise UnboundCurrentError(name)
            return history[-1]

        return current
    if isinstance(term, AllVar):
        name = term.name
        return lambda env: list(env.get(name, ()))
    if isinstance(term, Apply):
        entry = registry.lookup(term.fn)
        if entry is None:
            return _failing(f"unknown function {term.fn!r}")
        fn = entry.fn
        aggregate = len if entry is _LEN else sum if entry is _SUM else None
        if aggregate and len(term.args) == 1 and isinstance(term.args[0], AllVar):
            name = term.args[0].name
            return lambda env: aggregate(env.get(name, ()))
        args = [compile_term(a, registry) for a in term.args]
        if len(args) == 2:  # the operators; spelled out, as that is faster
            a, b = args
            return lambda env: fn(a(env), b(env))
        return lambda env: fn(*[a(env) for a in args])
    return _failing(f"not a term: {term!r}")


def eval_term(
    term: Term,
    env: Env,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
):
    """Evaluate a sort-correct term to an int, list of ints, or bool."""
    return compile_term(term, registry)(env)


def compile_write(
    write: WriteOutput, registry: FunctionRegistry = DEFAULT_REGISTRY
) -> Callable[[Env], OutputWordSet]:
    """A function giving the write's output set in a given environment
    (see `eval_output_set`)."""
    terms = [compile_term(t, registry) for t in write.terms]
    skippable = write.includes_epsilon
    empty = (EPSILON,) if skippable else ()

    def output_set(env: Env) -> OutputWordSet:
        words = frozenset([*[(term(env),) for term in terms], *empty])
        return OutputWordSet._one(words, skippable)

    return output_set


def eval_output_set(
    write: WriteOutput,
    env: Env,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> OutputWordSet:
    """All words the write may emit now, as a one-factor set: one-value
    words per term, and the empty word when the write is skippable.  Equal
    values collapse.  Back-to-back writes fuse by concatenating these
    factors (`OutputWordSet.concat`), never by enumerating their words."""
    return compile_write(write, registry)(env)
