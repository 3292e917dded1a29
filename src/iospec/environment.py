"""Term evaluation over variable histories, by Python code generated once.

An environment maps each variable to all values read into it, oldest
first; a variable never read has the empty history.  The interpreter keeps
one mutable history per variable and appends as it reads, so evaluation
hands out copies wherever a history escapes into a registry function.
The default registry's own `len` and `sum` only read their argument, so
they get the stored history itself: aggregating over a history that grows
by one value a round then costs no copy each round.

Terms are not walked but translated.  An `Emitter` turns a term, compiled
against a registry, into one Python expression over local variables that
hold the histories: a function application becomes a call of its registry
entry with its arguments evaluated left to right, and the copy-free
aggregate is chosen at compile time.  No text from the tree reaches the
source.  Every value taken from it (variable names, constants, registry
functions, error messages) is bound in the emitter's namespace under a
generated name, so a variable called ``"x; import os"`` is one more
history.  The interpreter emits whole specifications through the same
emitter (see `semantics`), where a write becomes an expression for its
bare factor: the frozenset of words it may emit, with no output set built
around it.  `eval_term` and `eval_output_set` wrap one term or write in a
function of an environment, compiled once per registry and kept in a
bounded cache; `eval_output_set` makes the factor a one-factor set.

Compiling never fails on a bad term.  An unknown function or a value that
is not a term becomes a call raising `EvalError`, so a bad term on a path
a run never takes raises nothing.  The one compile-time error is nesting:
a term more than `parser.MAX_NESTING` levels deep, counting the blocks
around it, raises `SpecStructureError`, since its code would run into
CPython's own limits on nested expressions.  Parsed specifications never
nest that deep.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Mapping, Sequence

from .parser import MAX_NESTING
from .syntax import (
    AllVar,
    Apply,
    CurrentVar,
    DEFAULT_REGISTRY,
    FunctionRegistry,
    IntConst,
    SpecStructureError,
    Term,
    WriteOutput,
)
from .traces import OutputWordSet

Env = Mapping[str, Sequence[int]]

# Registry entries known not to mutate a history; compared by identity, so
# a user's override of the same name still gets a copy.
_LEN = DEFAULT_REGISTRY.lookup("len")
_SUM = DEFAULT_REGISTRY.lookup("sum")

# The default integer operators, emitted as Python operators; an entry
# counts only when it is the default registry's own (compared by identity),
# so an override of the same name is still called.  `and` and `or` stay
# calls: both operands are evaluated first, and a short-circuit would skip
# the errors of the second.
_OPERATORS = {
    name: (DEFAULT_REGISTRY.lookup(name), template)
    for name, template in [
        ("+", "({} + {})"), ("-", "({} - {})"), ("*", "({} * {})"),
        ("==", "({} == {})"), ("<", "({} < {})"), ("<=", "({} <= {})"),
        (">", "({} > {})"), (">=", "({} >= {})"), ("not", "(not {})"),
    ]
}

# How many compiled terms, writes and specifications are kept, each kind
# in its own cache keyed on the tree and the registry.
COMPILED_CACHE_SIZE = 64


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


def _unbound(name):
    raise UnboundCurrentError(name)


def _fail(message: str):
    raise EvalError(message)


def too_deep() -> SpecStructureError:
    return SpecStructureError(f"nested more than {MAX_NESTING} levels deep")


class Emitter:
    """Python source for terms over one registry, and the namespace that
    source runs in.

    The source holds fixed templates and generated identifiers only: `h<i>`
    is the local holding the history of variable number i (whose name is
    bound as `n<i>`), and any other letter followed by a number is a value
    bound in the namespace.  `runtime` adds fixed names the caller's
    templates use.
    """

    def __init__(self, registry: FunctionRegistry, **runtime) -> None:
        self.registry = registry
        self.namespace = {
            "unbound": _unbound,
            "fail": _fail,
            **runtime,
        }
        self.variables: dict = {}  # variable name -> its number
        self._ids = itertools.count()

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._ids)}"

    def bind(self, value, prefix: str = "k") -> str:
        name = self.fresh(prefix)
        self.namespace[name] = value
        return name

    def variable(self, name) -> int:
        """The number of the named variable: its history is the local
        `h<i>`, its name bound as `n<i>`."""
        i = self.variables.get(name)
        if i is None:
            i = self.variables[name] = next(self._ids)
            self.namespace[f"n{i}"] = name
        return i

    def history(self, name) -> str:
        return f"h{self.variable(name)}"

    def histories(self) -> list[str]:
        return [f"h{i}" for i in self.variables.values()]

    def term(self, term: Term, level: int = 0) -> str:
        """An expression evaluating the sort-correct term to an int, list
        of ints or bool, for a term `level` levels deep."""
        if isinstance(term, IntConst):
            return self.bind(term.value)
        if isinstance(term, CurrentVar):
            i = self.variable(term.name)
            return f"(h{i}[-1] if h{i} else unbound(n{i}))"
        if isinstance(term, AllVar):
            return f"list({self.history(term.name)})"
        if isinstance(term, Apply):
            level += 1
            if level > MAX_NESTING:
                raise too_deep()
            entry = self.registry.lookup(term.fn)
            if entry is None:
                return f"fail({self.bind(f'unknown function {term.fn!r}', 'm')})"
            args = term.args
            if (entry is _LEN or entry is _SUM) and len(args) == 1 and isinstance(args[0], AllVar):
                aggregate = "len" if entry is _LEN else "sum"
                return f"{aggregate}({self.history(args[0].name)})"
            operands = [self.term(a, level) for a in args]
            default, template = _OPERATORS.get(term.fn, (None, ""))
            if entry is default and template.count("{}") == len(operands):
                return template.format(*operands)
            return f"{self.bind(entry.fn, 'f')}({', '.join(operands)})"
        return f"fail({self.bind(f'not a term: {term!r}', 'm')})"

    def factor(self, write: WriteOutput, level: int = 0) -> str:
        """An expression giving the words the write may emit, as a bare
        factor: a frozenset of one-value words, with the empty word when
        the write is skippable."""
        words = [f"({self.term(t, level)},)" for t in write.terms]
        if write.includes_epsilon:
            words.append("()")
        return f"frozenset(({', '.join(words)},))"

    def define(self, source: str, name: str) -> Callable:
        """Run the source in the namespace and return what it calls `name`."""
        exec(compile(source, "<iospec generated>", "exec"), self.namespace)
        return self.namespace[name]


def cached(compile_tree: Callable, tree, registry: FunctionRegistry):
    """`compile_tree(tree, registry)`, an `lru_cache`d function, bypassing
    the cache when a hand-built tree holds something unhashable: such a
    tree still compiles, and raises only where a run reaches that part."""
    try:
        return compile_tree(tree, registry)
    except TypeError:
        return compile_tree.__wrapped__(tree, registry)


def _of_env(emitter: Emitter, expression: str) -> Callable[[Env], object]:
    loads = "".join(
        f"    h{i} = env.get(n{i}, ())\n" for i in emitter.variables.values()
    )
    source = f"def evaluate(env):\n{loads}    return {expression}\n"
    return emitter.define(source, "evaluate")


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _compiled_term(term: Term, registry: FunctionRegistry) -> Callable[[Env], object]:
    emitter = Emitter(registry)
    return _of_env(emitter, emitter.term(term))


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _compiled_write(
    write: WriteOutput, registry: FunctionRegistry
) -> Callable[[Env], frozenset]:
    emitter = Emitter(registry)
    return _of_env(emitter, emitter.factor(write))


def eval_term(
    term: Term,
    env: Env,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
):
    """Evaluate a sort-correct term to an int, list of ints, or bool."""
    return cached(_compiled_term, term, registry)(env)


def eval_output_set(
    write: WriteOutput,
    env: Env,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> OutputWordSet:
    """All words the write may emit now, as a one-factor set: one-value
    words per term, and the empty word when the write is skippable.  Equal
    values collapse.  In the interpreter's compiled code the same write
    yields only the factor; back-to-back writes fuse by keeping their
    factors side by side, never by enumerating their words."""
    factor = cached(_compiled_write, write, registry)(env)
    return OutputWordSet._of((factor,), write.includes_epsilon)
