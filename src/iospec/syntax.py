"""Syntax trees for console I/O behavior specifications.

A specification is a flat sequence of actions: read an integer into a
variable, write one value out of a set of allowed output terms (optionally
nothing at all), branch on a condition, iterate until an exit marker, or
exit the innermost iteration.  Terms are integer/boolean expressions over
the *history* of values read into each variable: ``CurrentVar`` is the most
recently read value, ``AllVar`` the full chronological list.

Tree nodes are frozen records (`_Record`), not dataclasses:
``dataclasses.fields`` and ``dataclasses.replace`` do not apply to them,
while ``__match_args__`` names their fields, so ``match``/``case`` takes
them apart positionally.
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
    """A frozen value with named fields: the tree nodes here and the
    parser's tokens and spans.

    A subclass lists its fields as annotations, which are never evaluated,
    and gives a field a default as a class attribute of the same name.  An
    instance takes its fields by position or keyword, then runs
    ``__post_init__``; it compares and hashes as its class and field values
    and rejects assignment.  Unlike a dataclass, whose decorator execs the
    source of several methods per class, a subclass gets no methods of its
    own, so the classes every command loads cost next to nothing to define.
    """

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the class's own annotations only, in order, as strings
        cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with defaults or keywords."""
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        for name in fields[: len(args)]:
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values = list(args)
        defaults = vars(cls)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{cls.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}"
            )
        return values

    def __post_init__(self) -> None:
        pass

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

    # The hash of the whole tree, kept once computed: the interpreters key
    # their compiled code on the specification at every call.  Not a field.
    _hash = None

    def __post_init__(self) -> None:
        # One level suffices: an inner Spec was flattened when it was built.
        actions: list[Action] = []
        for item in self.actions:
            if isinstance(item, Spec):
                actions.extend(item.actions)
            else:
                actions.append(item)
        object.__setattr__(self, "actions", tuple(actions))

    def __hash__(self) -> int:
        # A tree holding something unhashable raises here on every call.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.actions,)))
        return self._hash

    def __getstate__(self) -> dict:
        # String hashes differ between processes, so a pickled or copied
        # specification computes its hash afresh.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __iter__(self) -> Iterator:
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)


EMPTY = Spec(())


class SpecStructureError(Exception):
    """A hand-built tree the interpreters cannot run: an exit marker fired
    with no enclosing iteration, or nesting deeper than `parser.MAX_NESTING`
    levels (both statically ruled out for parsed specifications)."""


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
    if isinstance(term, IntConst) or isinstance(term, CurrentVar):
        return Sort.INT
    if isinstance(term, AllVar):
        return Sort.INT_LIST
    if isinstance(term, Apply):
        fn = registry.lookup(term.fn)
        if fn is None:
            raise SortError(f"unknown function {term.fn!r}")
        if len(term.args) != len(fn.param_sorts):
            raise SortError(
                f"{term.fn} expects {len(fn.param_sorts)} arguments, "
                f"got {len(term.args)}"
            )
        for i, (arg, want) in enumerate(zip(term.args, fn.param_sorts)):
            got = sort_of(arg, registry)
            if got != want:
                raise SortError(
                    f"argument {i + 1} of {term.fn} has sort {got}, expected {want}"
                )
        return fn.result_sort
    raise SortError(f"not a term: {term!r}")


def term_variables(term: Term) -> set[str]:
    if isinstance(term, (CurrentVar, AllVar)):
        return {term.name}
    if isinstance(term, Apply):
        names: set[str] = set()
        for a in term.args:
            names |= term_variables(a)
        return names
    return set()


def variables_of(spec: Spec) -> set[str]:
    """All variable names occurring in reads or terms of the specification."""
    names: set[str] = set()
    for action in spec.actions:
        if isinstance(action, ReadInput):
            names.add(action.var)
        elif isinstance(action, WriteOutput):
            for t in action.terms:
                names |= term_variables(t)
        elif isinstance(action, Branch):
            names |= term_variables(action.condition)
            names |= variables_of(action.false_branch)
            names |= variables_of(action.true_branch)
        elif isinstance(action, TillExit):
            names |= variables_of(action.body)
    return names


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


def _binds_exit(spec: Spec) -> bool:
    # An Exit belonging to this iteration level; nested TillExits bind their own.
    for action in spec.actions:
        if isinstance(action, Exit):
            return True
        if isinstance(action, Branch):
            if _binds_exit(action.false_branch) or _binds_exit(action.true_branch):
                return True
    return False


def well_formed(
    spec: Spec, registry: FunctionRegistry = DEFAULT_REGISTRY
) -> list[Violation]:
    """Static checks on a specification; empty result means OK.

    Checks, in one left-to-right pre-order pass:

    * every ``CurrentVar`` use is preceded by a read of that variable
      (conservatively: a read anywhere earlier in traversal order counts,
      even in a sibling branch);
    * every iteration body contains an exit marker of its own;
    * no exit marker occurs outside all iterations;
    * every term sort-checks against the registry (write terms must be
      integers, branch conditions booleans).
    """
    violations: list[Violation] = []
    reads_seen: set[str] = set()

    def check_term(term: Term, want: Sort, path: Path, where: str) -> None:
        try:
            got = sort_of(term, registry)
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
        for name in _current_uses(term):
            if name not in reads_seen:
                violations.append(
                    Violation(
                        ViolationKind.USE_BEFORE_READ,
                        path,
                        f"{name}_C used before any read of {name}",
                    )
                )

    def walk(s: Spec, path: Path, loop_depth: int) -> None:
        for i, action in enumerate(s.actions):
            here = path + (i,)
            if isinstance(action, ReadInput):
                reads_seen.add(action.var)
            elif isinstance(action, WriteOutput):
                for t in action.terms:
                    check_term(t, Sort.INT, here, "output term")
            elif isinstance(action, Branch):
                check_term(action.condition, Sort.BOOL, here, "branch condition")
                walk(action.false_branch, here + ("false",), loop_depth)
                walk(action.true_branch, here + ("true",), loop_depth)
            elif isinstance(action, TillExit):
                if not _binds_exit(action.body):
                    violations.append(
                        Violation(
                            ViolationKind.MISSING_EXIT,
                            here,
                            "iteration body has no exit of its own",
                        )
                    )
                walk(action.body, here + ("body",), loop_depth + 1)
            elif isinstance(action, Exit):
                if loop_depth == 0:
                    violations.append(
                        Violation(
                            ViolationKind.ORPHAN_EXIT, here, "exit outside any loop"
                        )
                    )

    walk(spec, (), 0)
    return violations


def _current_uses(term: Term) -> set[str]:
    if isinstance(term, CurrentVar):
        return {term.name}
    if isinstance(term, Apply):
        names: set[str] = set()
        for a in term.args:
            names |= _current_uses(a)
        return names
    return set()
