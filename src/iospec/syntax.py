"""Syntax trees for console I/O behavior specifications.

A specification is a flat sequence of actions: read an integer into a
variable, write one value out of a set of allowed output terms (optionally
nothing at all), branch on a condition, iterate until an exit marker, or
exit the innermost iteration.  Terms are integer/boolean expressions over
the *history* of values read into each variable: ``CurrentVar`` is the most
recently read value, ``AllVar`` the full chronological list.

Tree nodes are frozen records (`_Record`), not dataclasses, as are the other
small values the layers pass on: tokens, traces and their steps, output
sets, coverage results, and the runner's and harness's configs and outcomes.
Each record class gets a generated ``__init__``; ``dataclasses.fields`` and
``dataclasses.replace`` do not apply to records, while ``__match_args__``
names their fields, so ``match``/``case`` takes them apart positionally.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Iterable, Iterator, Union


class Sort(enum.Enum):
    """Value sort of a term: integer, integer list, or boolean."""

    INT = "int"
    INT_LIST = "[int]"
    BOOL = "bool"

    def __str__(self) -> str:
        return self.value


class SortError(Exception):
    """A term does not sort-check against the function registry."""


class _Record:
    """A frozen value with named fields: the tree nodes here, the parser's
    tokens and spans, traces, their steps and output sets, coverage
    results, and the runner's and harness's configs and outcomes.

    A subclass lists its fields as annotations, which are never evaluated,
    and gives a field a default as a class attribute of the same name;
    fields with defaults come last.  Defining the subclass generates its
    ``__init__``, which takes the fields by position or keyword, stores
    them, and calls ``__post_init__`` if the class has one, so Python's own
    argument binding supplies the defaults and the ``TypeError``s.  An
    instance compares and hashes as its class and field values and rejects
    assignment.  It pickles and copies as its fields only, so what else an
    instance keeps in its ``__dict__``, a cache such as a specification's
    compiled code, is built afresh on the other side.  Unlike a dataclass,
    whose decorator execs the source of several methods per class, a
    subclass gets only that one function.

    A subclass that defines its own ``__init__`` keeps it; that stores the
    fields through ``self.__dict__``, and the generated initializer becomes
    the classmethod ``_of``, which builds an instance from its field values
    unchecked.  Such a class has no ``__post_init__``: it would never run.
    """

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        custom = "__init__" in own
        if custom and hasattr(cls, "__post_init__"):
            raise TypeError(f"{cls.__name__} defines __init__, so its __post_init__ never runs")
        # the class's own annotations only, in order, as strings
        fields = cls.__match_args__ = tuple(cls.__annotations__)
        defaults = tuple([own[name] for name in fields if name in own])
        if any(name not in own for name in fields[len(fields) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with one")
        # A class body mangles `__name` annotations: no field is `__fields` or `__cls`.
        name, first = ("_of", "__cls") if custom else ("__init__", "self")
        lines = [f"def {name}({', '.join((first,) + fields)}):"]
        if custom:
            lines.append("    self = __cls.__new__(__cls)")
        lines.append("    __fields = self.__dict__")
        lines += [f"    __fields[{field!r}] = {field}" for field in fields]
        if custom:
            lines.append("    return self")
        elif hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace: dict = {}
        exec("\n".join(lines), namespace)
        function = namespace[name]
        function.__defaults__ = defaults
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, classmethod(function) if custom else function)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> dict:
        # The fields alone: anything else kept on an instance is a cache.
        fields = self.__dict__
        return {name: fields[name] for name in self.__match_args__}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Terms


class IntConst(_Record):
    value: int


class CurrentVar(_Record):
    """The last value read into a variable (fails if none was read yet)."""

    name: str


class AllVar(_Record):
    """All values read into a variable so far, oldest first (may be empty)."""

    name: str


class Apply(_Record):
    fn: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


Term = Union[IntConst, CurrentVar, AllVar, Apply]


# ---------------------------------------------------------------------------
# Input domains


class InputDomain(_Record):
    """Set of integers a read action accepts.  Membership is total."""

    def contains(self, value: int) -> bool:
        raise NotImplementedError


class Integers(InputDomain):
    def contains(self, value: int) -> bool:
        return True

    def __str__(self) -> str:
        return "ints"


class Naturals(InputDomain):
    def contains(self, value: int) -> bool:
        return value >= 0

    def __str__(self) -> str:
        return "nats"


class ExplicitSet(InputDomain):
    values: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozenset(self.values))
        if not self.values:
            raise ValueError("explicit input domain must be non-empty")

    def contains(self, value: int) -> bool:
        return value in self.values

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in sorted(self.values)) + "}"


# ---------------------------------------------------------------------------
# Actions and specifications


class ReadInput(_Record):
    var: str
    domain: InputDomain


class WriteOutput(_Record):
    """One output step allowing any of `terms`; epsilon permits no output.

    At least one real term is required: an all-epsilon write would be
    equivalent to the empty specification and an empty one unsatisfiable.
    """

    terms: tuple[Term, ...]
    includes_epsilon: bool = False

    def __post_init__(self) -> None:
        seen: list[Term] = []
        for t in self.terms:
            if t not in seen:
                seen.append(t)
        object.__setattr__(self, "terms", tuple(seen))
        if not self.terms:
            raise ValueError("write action needs at least one non-epsilon term")


class Branch(_Record):
    """Run `true_branch` when the condition holds, else `false_branch`."""

    condition: Term
    false_branch: "Spec"
    true_branch: "Spec"


class TillExit(_Record):
    """Repeat `body` until an Exit inside it is reached."""

    body: "Spec"


class Exit(_Record):
    """Leave the innermost iteration, discarding the rest of its sequence."""


Action = Union[ReadInput, WriteOutput, Branch, TillExit, Exit]


class Spec(_Record):
    """A sequence of actions; the empty sequence is the empty specification.

    Always flat: a ``Spec`` item given to the constructor stands for a
    parenthesized sub-sequence, and its actions are spliced in place (an
    empty one contributes nothing).  Every walk over the tree relies on this.
    """

    actions: tuple = ()

    def __post_init__(self) -> None:
        # One level suffices: an inner Spec was flattened when it was built.
        actions: list[Action] = []
        for item in self.actions:
            if isinstance(item, Spec):
                actions.extend(item.actions)
            else:
                actions.append(item)
        object.__setattr__(self, "actions", tuple(actions))

    def __iter__(self) -> Iterator:
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)


EMPTY = Spec(())


class SpecStructureError(Exception):
    """A hand-built tree the interpreters cannot run: an exit marker fired
    with no enclosing iteration, or nesting deeper than `MAX_NESTING`
    levels (both statically ruled out for parsed specifications)."""


# How deep a tree may nest: a construct's level is the number of `if` and
# `loop` blocks and of function applications around it, itself included
# (see `parser`, which reads no deeper text).  The parser, the static
# checks, the pretty-printer and the code generator of the interpreters
# recurse over the tree, using up to about a dozen stack frames a level, so
# this keeps every one of them well inside Python's default recursion limit
# of 1000 frames, with room for the callers' own frames; each raises
# `too_deep()` on a hand-built tree past it.  The generated code nests an
# `if` or a call per level, which stays inside CPython's limits of 100
# indentation levels and 200 nested parentheses.
MAX_NESTING = 50


def too_deep() -> SpecStructureError:
    return SpecStructureError(f"nested more than {MAX_NESTING} levels deep")


def normalize_spec(spec: Spec) -> Spec:
    """The specification itself: every ``Spec`` is flat once built."""
    return spec


# ---------------------------------------------------------------------------
# Function registry


class FunctionSpec(_Record):
    name: str
    param_sorts: tuple[Sort, ...]
    result_sort: Sort
    fn: Callable  # must be total on sort-correct arguments


class FunctionRegistry:
    """Named functions usable in terms, with their sorts and evaluation rules."""

    def __init__(self, functions: Iterable[FunctionSpec] = ()):
        self._table: dict[str, FunctionSpec] = {f.name: f for f in functions}

    def lookup(self, name: str) -> FunctionSpec | None:
        return self._table.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def extended(self, *functions: FunctionSpec) -> "FunctionRegistry":
        """A new registry with `functions` added (overriding same names)."""
        merged = dict(self._table)
        merged.update({f.name: f for f in functions})
        return FunctionRegistry(merged.values())


_INT = Sort.INT
_LIST = Sort.INT_LIST
_BOOL = Sort.BOOL

DEFAULT_REGISTRY = FunctionRegistry(
    [
        FunctionSpec("sum", (_LIST,), _INT, lambda xs: sum(xs)),
        FunctionSpec("len", (_LIST,), _INT, lambda xs: len(xs)),
        FunctionSpec("+", (_INT, _INT), _INT, operator.add),
        FunctionSpec("-", (_INT, _INT), _INT, operator.sub),
        FunctionSpec("*", (_INT, _INT), _INT, operator.mul),
        FunctionSpec("==", (_INT, _INT), _BOOL, operator.eq),
        FunctionSpec("<", (_INT, _INT), _BOOL, operator.lt),
        FunctionSpec("<=", (_INT, _INT), _BOOL, operator.le),
        FunctionSpec(">", (_INT, _INT), _BOOL, operator.gt),
        FunctionSpec(">=", (_INT, _INT), _BOOL, operator.ge),
        FunctionSpec("and", (_BOOL, _BOOL), _BOOL, lambda a, b: a and b),
        FunctionSpec("or", (_BOOL, _BOOL), _BOOL, lambda a, b: a or b),
        FunctionSpec("not", (_BOOL,), _BOOL, operator.not_),
    ]
)


def sort_of(term: Term, registry: FunctionRegistry = DEFAULT_REGISTRY) -> Sort:
    """Infer the sort of a term, raising SortError on any mismatch."""
    return _sort_of(term, registry, 0)


def _sort_of(term: Term, registry: FunctionRegistry, level: int) -> Sort:
    """`sort_of` on a term `level` levels deep."""
    if isinstance(term, IntConst) or isinstance(term, CurrentVar):
        return Sort.INT
    if isinstance(term, AllVar):
        return Sort.INT_LIST
    if isinstance(term, Apply):
        level += 1
        if level > MAX_NESTING:
            raise too_deep()
        fn = registry.lookup(term.fn)
        if fn is None:
            raise SortError(f"unknown function {term.fn!r}")
        if len(term.args) != len(fn.param_sorts):
            raise SortError(
                f"{term.fn} expects {len(fn.param_sorts)} arguments, "
                f"got {len(term.args)}"
            )
        for i, (arg, want) in enumerate(zip(term.args, fn.param_sorts)):
            got = _sort_of(arg, registry, level)
            if got != want:
                raise SortError(
                    f"argument {i + 1} of {term.fn} has sort {got}, expected {want}"
                )
        return fn.result_sort
    raise SortError(f"not a term: {term!r}")


def term_variables(term: Term, kinds: type | tuple = (CurrentVar, AllVar)) -> tuple[str, ...]:
    """The names of the variables of the given kinds that `term` uses, each
    once, in the order they first appear, left to right."""
    names: dict = {}
    _term_variables(term, 0, dict.fromkeys(kinds if isinstance(kinds, tuple) else (kinds,), names))
    return tuple(names)


def _term_variables(term: Term, level: int, into: dict) -> None:
    """Add the name of each variable of `term`, a term `level` levels deep,
    to `into[kind]`, for its kind CurrentVar or AllVar, where `into` has
    that kind."""
    names = into.get(type(term))
    if names is not None:
        names[term.name] = None
    elif isinstance(term, Apply):
        level += 1
        if level > MAX_NESTING:
            raise too_deep()
        for arg in term.args:
            _term_variables(arg, level, into)


def variables_of(spec: Spec) -> set[str]:
    """All variable names occurring in reads or terms of the specification."""
    names: dict = {}
    _variables_of(spec, 0, names)
    return set(names)


def _variables_of(spec: Spec, level: int, names: dict) -> None:
    if level > MAX_NESTING:
        raise too_deep()
    for action in spec.actions:
        if isinstance(action, ReadInput):
            names[action.var] = None
        elif isinstance(action, WriteOutput):
            for t in action.terms:
                _term_variables(t, level, {CurrentVar: names, AllVar: names})
        elif isinstance(action, Branch):
            _term_variables(action.condition, level, {CurrentVar: names, AllVar: names})
            _variables_of(action.false_branch, level + 1, names)
            _variables_of(action.true_branch, level + 1, names)
        elif isinstance(action, TillExit):
            _variables_of(action.body, level + 1, names)


# ---------------------------------------------------------------------------
# Static well-formedness


class ViolationKind(enum.Enum):
    USE_BEFORE_READ = "use-before-read"
    MISSING_EXIT = "missing-exit"
    ORPHAN_EXIT = "orphan-exit"
    SORT_ERROR = "sort-error"


# A path addresses a node: integer items index into a Spec's actions,
# string items descend into "false"/"true"/"body" sub-specifications.
Path = tuple


class Violation(_Record):
    kind: ViolationKind
    path: Path
    detail: str = ""

    def __str__(self) -> str:
        where = "/".join(str(p) for p in self.path) or "<root>"
        msg = f"{self.kind.value} at {where}"
        return f"{msg}: {self.detail}" if self.detail else msg


def node_at(spec: Spec, path: Path):
    """Resolve a violation path to the node it points at."""
    node = spec
    for step in path:
        if isinstance(step, int):
            node = node.actions[step]
        elif step == "false":
            node = node.false_branch
        elif step == "true":
            node = node.true_branch
        elif step == "body":
            node = node.body
        else:
            raise KeyError(f"bad path step {step!r}")
    return node


def well_formed(
    spec: Spec, registry: FunctionRegistry = DEFAULT_REGISTRY
) -> list[Violation]:
    """Static checks on a specification; empty result means OK.

    Checks, all in one left-to-right pre-order pass over the tree:

    * every ``CurrentVar`` use is preceded by a read of that variable
      (conservatively: a read anywhere earlier in traversal order counts,
      even in a sibling branch);
    * every iteration body contains an exit marker of its own;
    * no exit marker occurs outside all iterations;
    * every term sort-checks against the registry (write terms must be
      integers, branch conditions booleans).

    Violations come in the order the pass meets them, a loop's missing
    exit before what its body holds.  A tree nested deeper than
    MAX_NESTING levels raises SpecStructureError.
    """
    violations: list[Violation] = []
    reads_seen: set[str] = set()

    def check_term(term: Term, want: Sort, path: Path, where: str, level: int) -> None:
        try:
            got = _sort_of(term, registry, level)
            if got != want:
                violations.append(
                    Violation(
                        ViolationKind.SORT_ERROR,
                        path,
                        f"{where} has sort {got}, expected {want}",
                    )
                )
        except SortError as err:
            violations.append(Violation(ViolationKind.SORT_ERROR, path, str(err)))
        names: dict = {}
        _term_variables(term, level, {CurrentVar: names})
        for name in names:
            if name not in reads_seen:
                violations.append(
                    Violation(
                        ViolationKind.USE_BEFORE_READ,
                        path,
                        f"{name}_C used before any read of {name}",
                    )
                )

    def walk(s: Spec, path: Path, loop_depth: int, level: int) -> bool:
        # Whether `s` holds an exit of the innermost loop around it, in
        # itself or in a branch arm; a nested loop's exits are its own.
        # `level` counts the blocks around `s`.
        if level > MAX_NESTING:
            raise too_deep()
        exits = False
        for i, action in enumerate(s.actions):
            here = path + (i,)
            if isinstance(action, ReadInput):
                reads_seen.add(action.var)
            elif isinstance(action, WriteOutput):
                for t in action.terms:
                    check_term(t, Sort.INT, here, "output term", level)
            elif isinstance(action, Branch):
                check_term(action.condition, Sort.BOOL, here, "branch condition", level)
                exits |= walk(action.false_branch, here + ("false",), loop_depth, level + 1)
                exits |= walk(action.true_branch, here + ("true",), loop_depth, level + 1)
            elif isinstance(action, TillExit):
                at = len(violations)  # before the body's own violations
                if not walk(action.body, here + ("body",), loop_depth + 1, level + 1):
                    violations.insert(
                        at,
                        Violation(
                            ViolationKind.MISSING_EXIT,
                            here,
                            "iteration body has no exit of its own",
                        ),
                    )
            elif isinstance(action, Exit):
                exits = True
                if loop_depth == 0:
                    violations.append(
                        Violation(
                            ViolationKind.ORPHAN_EXIT, here, "exit outside any loop"
                        )
                    )
        return exits

    walk(spec, (), 0, 0)
    return violations

