"""Interpreters over specifications: trace generation and trace acceptance.

:func:`interpret` runs a specification on a fixed input sequence and
returns the one generalized trace describing every valid run on those
inputs.  :func:`sample_generalized_trace` does the same with randomly
drawn inputs, which is what the test harness feeds on.  Both share one
run of the specification: a sequence runs its actions in order, a branch
runs the arm its condition picks, and a loop re-runs its body until an
exit marker inside it fires.  An exit cuts short every enclosing sequence
up to its loop, which discards whatever else was left of that round.
Each loop counts its rounds, so a runaway loop hits a configurable limit
instead of spinning forever.

That run is Python code generated from the specification, a specializing
translation of the walk it replaces (the first Futamura projection).  The
top level becomes one function holding the variable histories as local
lists, oldest value first, and each loop a function defined inside it that
shares them: a branch is an `if`, a loop a `for` over its allowed rounds,
an exit a `break`, and a term an inline expression.  The code is
specialized on what the specification fixes before any input is seen
(the static part of a binding-time split): a read closes the writes
directly before it itself, a current value read on every path to its use
is used without checking that it was read, and a variable keeps only the
history or current value some term reads.  `interpret`, sampling and
`accept` all enter the one run through `_run`, which fails a run that
leaves given inputs unread.  It is compiled the first time a
specification object is run with a registry (a few tenths of a millisecond
for `tests/data/sum.iospec` on a 2-vCPU x86_64 host) and kept on that
object for its lifetime (a copy or an equal tree compiles its own), and
the limits and the inputs belong to each call.

Terms are translated, not walked.  The compiler turns a term, against
its registry, into one Python expression over the local histories:
a function application becomes a call of its registry entry with its
arguments evaluated left to right, and the default registry's own
operators become Python operators.  A history that escapes into a
registry function is copied, since the run appends to it; the default
registry's own `len` and `sum` only read their argument, so they get the
stored history itself, and aggregating over a history that grows by one
value a round costs no copy each round.  No text from the tree reaches
the source.  Every value taken from it (variable names, constants,
registry functions, error messages) is bound in the code's namespace
under a generated name, so a variable called ``"x; import os"`` is one
more history.  A write becomes an expression for its bare factor: the
distinct words it may emit, with no output set built around it, as the
tuple of its words unless two of its values are equal (see
`_Compiler.write`).

Compiling never fails on a bad term or action.  An unknown function or a
value that is not a term becomes a call raising `EvalError`, and an exit
outside all loops or a non-action a `raise` of `SpecStructureError` or
`TypeError`, so a bad part on a path the inputs never take raises nothing.
The one compile-time error is nesting: a hand-built tree nested deeper
than `syntax.MAX_NESTING` levels, counting a term's applications with the
blocks around it, raises `SpecStructureError`, as its code would pass
CPython's limits on nested blocks and expressions; a parsed one never
nests deeper.

:func:`accept` decides whether an ordinary trace is a valid run.  Writes
never change the environment, so a run's inputs alone fix the control
flow: the run is valid iff it is covered by the generalized trace its
inputs produce.  A trace is stored as its inputs and one output word per
gap (the outputs before each input, then those after the last); `accept`
runs the specification on those inputs to the end through `_run`, as
`interpret` does, and hands the run's gaps and the trace's words to
`traces.first_uncovered`, the check `covers` makes, with no generalized
trace and no mismatch built.  So it raises what `interpret` raises.

How a read takes its value and closes the output gap before it, the
forms a write's factor takes, which locals the code keeps and where a
current value keeps its check are told once, at the code: in the
`_Compiler` docstring and in `_Compiler.read` and `_Compiler.write`.  A
generalized trace is kept as its inputs and its gaps, so neither
interpreter builds an input step or output set for the steps of a run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from .parser import _BINARY
from .syntax import (
    MAX_NESTING,
    AllVar,
    Apply,
    Branch,
    CurrentVar,
    DEFAULT_REGISTRY,
    ExplicitSet,
    Exit,
    FunctionRegistry,
    InputDomain,
    IntConst,
    Integers,
    Naturals,
    ReadInput,
    Spec,
    SpecStructureError,
    Term,
    TillExit,
    WriteOutput,
    _Record,
    _term_variables,
    too_deep,
)
from .traces import GeneralizedTrace, Trace, first_uncovered


class GenerationLimits(_Record):
    """Runtime bounds substituting for static termination checks."""

    max_loop_iterations: int = 1000
    max_trace_length: int = 10000

    def __post_init__(self) -> None:
        for name in ("max_loop_iterations", "max_trace_length"):
            limit = getattr(self, name)
            if not isinstance(limit, int):
                raise TypeError(f"{name} must be an int, got {limit!r}")
        if self.max_loop_iterations < 1 or self.max_trace_length < 1:
            raise ValueError("limits must be at least 1")


# A dataclass, not a `_Record`: bench/run.py derives each round's policy
# by `replace`, the only caller that does.
@dataclass(frozen=True)
class SamplingPolicy:
    """Inclusive ranges inputs are drawn from, plus the generator seed."""

    integer_range: tuple[int, int] = (-10, 10)
    natural_range: tuple[int, int] = (0, 10)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("integer_range", "natural_range"):
            bounds = getattr(self, name)
            if not (isinstance(bounds, tuple) and len(bounds) == 2
                    and all(isinstance(bound, int) for bound in bounds)):
                raise TypeError(f"{name} must be a pair of ints, got {bounds!r}")
        if not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if self.integer_range[0] > self.integer_range[1]:
            raise ValueError("empty integer range")
        if self.natural_range[0] > self.natural_range[1]:
            raise ValueError("empty natural range")
        if self.natural_range[0] < 0:
            raise ValueError("natural range must not contain negatives")

    def rng(self) -> random.Random:
        """The generator `seed` starts.  `random.Random` seeds an int by its
        absolute value, so a negative seed seeds with its decimal text
        instead, for a stream of its own."""
        return random.Random(self.seed if self.seed >= 0 else str(self.seed))


class LimitExceededError(Exception):
    """A generation limit was hit before the run finished."""


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


class InterpretError(Exception):
    pass


class InputRejectedError(InterpretError):
    def __init__(self, position: int, value: int, domain: InputDomain):
        super().__init__(
            f"input #{position + 1} is {value}, outside the domain {domain}"
        )
        self.position = position
        self.value = value
        self.domain = domain


class InputsExhaustedError(InterpretError):
    def __init__(self, position: int):
        super().__init__(f"the specification demands a {_ordinal(position + 1)} input")
        self.position = position


class SurplusInputsError(InterpretError):
    def __init__(self, count: int):
        super().__init__(f"{count} input(s) left over after the run finished")
        self.count = count


class GenerationFailureError(Exception):
    """Random generation hit a limit before producing a complete trace."""


def _ordinal(n: int) -> str:
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10 if n % 100 not in (11, 12, 13) else 0, "th")
    return f"{n}{suffix}"


# ---------------------------------------------------------------------------
# Generalized trace generation


# Registry entries known not to mutate a history; compared by identity, so
# a user's override of the same name still gets a copy.
_LEN = DEFAULT_REGISTRY.lookup("len")
_SUM = DEFAULT_REGISTRY.lookup("sum")

# The parser's operators, emitted as Python operators; an entry counts only
# when it is the default registry's own (compared by identity), so an
# override of the same name is still called.  `and` and `or` stay calls:
# both operands are evaluated first, and a short-circuit would skip the
# errors of the second.
_OPERATORS = {
    fn: (DEFAULT_REGISTRY.lookup(fn), f"({{}} {fn} {{}})")
    for fn, _level in _BINARY.values()
    if fn not in ("and", "or")
}
_OPERATORS["not"] = (DEFAULT_REGISTRY.lookup("not"), "(not {})")


def _unbound(name):
    raise UnboundCurrentError(name)


def _fail(message: str):
    raise EvalError(message)


def _too_many_rounds(limit):
    raise LimitExceededError(f"loop ran more than {limit} rounds")


def _exhausted(position, domain):
    raise InputsExhaustedError(position)


def _too_long(limit):
    raise LimitExceededError(f"trace grew past {limit} steps")


def _factor(words: tuple):
    """The factor of a write of several values, two of whose hashes are
    equal: its `words` as a frozenset, which drops the repeat, when two of
    them are equal, and the tuple itself otherwise.  The frozenset
    compares only words of equal hash, and finds a word equal to itself
    by identity."""
    distinct = frozenset(words)
    return distinct if len(distinct) < len(words) else words


# A variable's current value until its first read.
_UNSET = object()


class _Compiler:
    """Python source for a specification over one registry, and the
    namespace that source runs in.

    The top level is the function `run(values, draw, max_rounds,
    max_steps)`, returning the run's gaps.  A read takes the next of the
    fixed `values`, raising InputRejectedError outside its domain unless
    that is `ints`, or, once they are used up, what `draw(i, domain)`
    returns or raises.  It closes the output gap before it, raises once
    the trace has grown past `max_steps` steps, and keeps the value where
    a term can read it; the counters `i` (inputs read) and `steps` are
    locals of `run`.  So are `pending`, the factors of the writes since
    the last read that no read closes directly, and `gaps` with its
    `append` as `close`: the run closes the last gap itself as the tuple
    of `pending` before it returns `gaps`.  `max_rounds` is the call's
    limit on a loop's rounds.  Each loop is a function without parameters
    defined at the top of `run`, sharing all of its locals (it declares
    the counters and the current values `nonlocal`), so that no function
    nests loops (CPython allows only 20 nested blocks); its body runs
    under `for _ in range(max_rounds)`, whose `else` raises.  A branch is
    an `if` and an exit is a `break`.

    The code holds what a term may read and nothing more, which a pre-pass
    over every condition and written term (`note`) decides before any
    code is made.  A variable whose history some term reads has it as the
    local list `h<i>`, oldest value first; one whose current value some
    term reads has the local `c<i>`, the last value read into it, or
    `unset` before its first read.  A read of a variable no term reads
    keeps nothing.  A current-value use compiles to `c<i>` alone where
    the variable is read on every path to it, and keeps the guard
    `(c<i> if c<i> is not unset else unbound(n<i>))` everywhere else.
    `bound` holds the variables proven read while the code is made: a
    read adds its variable, a branch keeps what both its arms read, and a
    loop's body and the code after the loop start from what was read
    before the loop, as an exit may come before any of the body's reads.

    The source holds fixed templates and generated identifiers only: `h<i>`
    and `c<i>` are as above for variable number i (whose name is bound as
    `n<i>`), `u<j>` holds the j-th write's value or factor in a run of
    writes a read closes (`u0` for a write appended to `pending`), and a
    write of several values keeps its m-th value in `u<j>_<m>` and that
    value's hash in `s<j>_<m>`.  Any other letter followed by a number is
    a value bound in the namespace (a read's domain is `d<k>`), `v` holds
    the value a read takes, and the remaining names are `run`'s parameters
    and locals and the helpers and errors `__init__` binds.
    """

    def __init__(self, registry: FunctionRegistry) -> None:
        self.registry = registry
        self.namespace = {
            "unbound": _unbound,
            "unset": _UNSET,
            "fail": _fail,
            "too_many_rounds": _too_many_rounds,
            "too_long": _too_long,
            "factor": _factor,
            "InputRejectedError": InputRejectedError,
            "SpecStructureError": SpecStructureError,
        }
        self.variables: dict = {}  # variable name -> its number
        self.loops: list[tuple[str, list[str]]] = []  # name, indented body
        self._ids = itertools.count()
        self.currents: dict = {}  # names whose current value a term reads
        self.histories: dict = {}  # names whose history a term reads
        self.bound: frozenset = frozenset()  # names read on every path here

    def compile(self, spec: Spec) -> Callable:
        self.note(spec.actions, 0)
        body = self.block(spec.actions, False, "    ")
        histories = [i for name, i in self.variables.items() if name in self.histories]
        currents = [i for name, i in self.variables.items() if name in self.currents]
        parts = ["def run(values, draw, max_rounds, max_steps):",
                 "    count = len(values)", "    i = steps = 0", "    gaps = []",
                 "    close = gaps.append", "    pending = []"]
        parts += [f"    h{i} = []" for i in histories]
        parts += [f"    c{i} = unset" for i in currents]
        shared = ", ".join(["i", "steps", *[f"c{i}" for i in currents]])
        for name, loop_body in self.loops:
            parts += [f"    def {name}():", f"        nonlocal {shared}",
                      "        for _ in range(max_rounds):", *loop_body,
                      "        else:", "            too_many_rounds(max_rounds)"]
        parts += body + ["    close(tuple(pending))", "    return gaps"]
        source = "\n".join(parts) + "\n"
        exec(compile(source, "<iospec generated>", "exec"), self.namespace)
        return self.namespace["run"]

    def note(self, actions, level: int) -> None:
        """The pre-pass over the actions `level` blocks deep: add to
        `currents` and `histories` the variables whose current value or
        history a condition or written term reads.  It is the one walk
        that checks nesting, so it raises SpecStructureError on a tree
        nested too deep before any code is made."""
        if level > MAX_NESTING:
            raise too_deep()
        for action in actions:
            if isinstance(action, WriteOutput):
                terms, blocks = action.terms, ()
            elif isinstance(action, Branch):
                terms, blocks = (action.condition,), (action.true_branch, action.false_branch)
            elif isinstance(action, TillExit):
                terms, blocks = (), (action.body,)
            else:
                continue
            for term in terms:
                _term_variables(term, level, {CurrentVar: self.currents, AllVar: self.histories})
            for block in blocks:
                self.note(block.actions, level + 1)

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._ids)}"

    def bind(self, value, prefix: str = "k") -> str:
        name = self.fresh(prefix)
        self.namespace[name] = value
        return name

    def variable(self, name) -> int:
        """The number of the named variable: its history is the local
        `h<i>` and its current value the local `c<i>`, its name bound as
        `n<i>`."""
        i = self.variables.get(name)
        if i is None:
            i = self.variables[name] = next(self._ids)
            self.namespace[f"n{i}"] = name
        return i

    def history(self, name) -> str:
        return f"h{self.variable(name)}"

    def term(self, term: Term) -> str:
        """An expression evaluating the sort-correct term to an int, list
        of ints or bool."""
        if isinstance(term, IntConst):
            return self.bind(term.value)
        if isinstance(term, CurrentVar):
            i = self.variable(term.name)
            if term.name in self.bound:
                return f"c{i}"
            return f"(c{i} if c{i} is not unset else unbound(n{i}))"
        if isinstance(term, AllVar):
            return f"list({self.history(term.name)})"
        if isinstance(term, Apply):
            entry = self.registry.lookup(term.fn)
            if entry is None:
                return f"fail({self.bind(f'unknown function {term.fn!r}', 'm')})"
            args = term.args
            if (entry is _LEN or entry is _SUM) and len(args) == 1 and isinstance(args[0], AllVar):
                aggregate = "len" if entry is _LEN else "sum"
                return f"{aggregate}({self.history(args[0].name)})"
            operands = [self.term(a) for a in args]
            default, template = _OPERATORS.get(term.fn, (None, ""))
            if entry is default and template.count("{}") == len(operands):
                return template.format(*operands)
            return f"{self.bind(entry.fn, 'f')}({', '.join(operands)})"
        return f"fail({self.bind(f'not a term: {term!r}', 'm')})"

    def read(self, read: ReadInput, factors: list[str], pad: str) -> list[str]:
        """A read: take the next given value and check its domain, or else
        call `draw`, close the gap before it, count its steps, and keep
        the value in its history and as its variable's current value
        where a term reads them.  The gap is `pending` followed by
        `factors`, those of the writes directly before the read, which are
        in locals of their own; with none of them it is `pending` alone,
        and may be empty."""
        domain = self.bind(read.domain, "d")
        take = [f"{pad}if i < count:", f"{pad}    v = values[i]"]
        if type(read.domain) is not Integers:  # `ints` holds every value
            take.append(f"{pad}    if not {domain}.contains(v): "
                        f"raise InputRejectedError(i, v, {domain})")
        if factors:
            listed = ", ".join(factors)
            close = [f"{pad}steps += 2", f"{pad}if pending:",
                     f"{pad}    close((*pending, {listed}))", f"{pad}    pending.clear()",
                     f"{pad}else:", f"{pad}    close(({listed},))"]
        else:
            # `2 if pending else 1`: `1 + bool(pending)` misses CPython's
            # int fast path
            close = [f"{pad}steps += 2 if pending else 1",
                     f"{pad}close(tuple(pending))", f"{pad}pending.clear()"]
        keep = []
        if read.var in self.histories:
            keep.append(f"{pad}h{self.variable(read.var)}.append(v)")
        if read.var in self.currents:
            keep.append(f"{pad}c{self.variable(read.var)} = v")
        self.bound |= {read.var}
        return [
            *take,
            f"{pad}else:",
            f"{pad}    v = draw(i, {domain})",
            *close,
            f"{pad}if steps > max_steps: too_long(max_steps)",
            *keep,
            f"{pad}i += 1",
        ]

    def write(self, write: WriteOutput, pad: str, factors: list[str] | None) -> list[str]:
        """A write: its factor, the one-value words of its values, with the
        empty word when it is skippable.  It goes to `factors` when a read
        closes it, or else is appended to `pending`.  The factor is the
        tuple of the words, `()` first, which costs about a third of a
        frozenset to build and which the cyclic collector stops tracking:
        `((), (u,))` or `((u,),)` over the value `u` of a write of one
        value.  Each value is evaluated, left to right, before any is
        hashed, and each is hashed, so the errors of its terms and the
        TypeError of an unhashable value come in a frozenset's order.
        Several values are compared by their hashes, two with `!=` and
        more as a set; only when two hashes are equal does `factor` build
        the frozenset, comparing words as it does, and it keeps the
        frozenset, which drops the repeat, when two words are equal.  A
        write in `factors` evaluates its values, and decides its factor,
        where it stands, into the local `u<j>` for the j-th of them, so its
        errors come in their order; a one-value write's `u<j>` holds its
        value, and its factor is built where the read closes it."""
        values = [self.term(t) for t in write.terms]
        u = "u0" if factors is None else f"u{len(factors)}"
        if len(values) == 1:
            lines = [f"{pad}{u} = {values[0]}", f"{pad}hash({u})"]
            factor = f"((), ({u},))" if write.includes_epsilon else f"(({u},),)"
        else:
            names = [f"{u}_{m}" for m in range(len(values))]
            hashes = [f"s{name[1:]}" for name in names]
            lines = [f"{pad}{name} = {value}" for name, value in zip(names, values)]
            lines += [f"{pad}{s} = hash({name})" for s, name in zip(hashes, names)]
            if len(hashes) == 2:  # a set of two: check_traces op_p50 +7%
                distinct = f"{hashes[0]} != {hashes[1]}"
            else:
                distinct = f"len({{{', '.join(hashes)}}}) == {len(hashes)}"
            words = ", ".join(["()"] * write.includes_epsilon + [f"({name},)" for name in names])
            factor = f"({words}) if {distinct} else factor(({words}))"
            if factors is not None:
                lines, factor = lines + [f"{pad}{u} = {factor}"], u
        if factors is None:
            return lines + [f"{pad}pending.append({factor})"]
        factors.append(factor)
        return lines

    def block(self, actions, in_loop: bool, pad: str) -> list[str]:
        # Which writes a read closes: those with only writes between them
        # and a read.
        closed, closing = [], False
        for action in reversed(actions):
            if not isinstance(action, WriteOutput):
                closing = isinstance(action, ReadInput)
            closed.append(closing)
        closed.reverse()
        lines: list[str] = []
        factors: list[str] = []
        for action, by_read in zip(actions, closed):
            if isinstance(action, WriteOutput):
                lines += self.write(action, pad, factors if by_read else None)
            elif isinstance(action, ReadInput):
                lines += self.read(action, factors, pad)
                factors = []
            else:
                lines += self.action(action, in_loop, pad)
        return lines or [pad + "pass"]

    def action(self, action, in_loop: bool, pad: str) -> list[str]:
        if isinstance(action, Branch):
            inner = pad + "    "
            condition = self.term(action.condition)
            entry = self.bound
            true = self.block(action.true_branch.actions, in_loop, inner)
            self.bound, after_true = entry, self.bound
            false = self.block(action.false_branch.actions, in_loop, inner)
            self.bound &= after_true
            return [f"{pad}if {condition}:", *true, f"{pad}else:", *false]
        if isinstance(action, TillExit):
            entry = self.bound
            name = self.fresh("loop")
            body = self.block(action.body.actions, True, " " * 12)
            self.bound = entry
            self.loops.append((name, body))
            return [f"{pad}{name}()"]
        if isinstance(action, Exit):
            return [pad + ("break" if in_loop else
                           'raise SpecStructureError("exit marker outside any loop")')]
        message = self.bind(f"not an action: {action!r}", "m")
        return [f"{pad}raise TypeError({message})"]


def _compiled(spec: Spec, registry: FunctionRegistry) -> Callable:
    """The specification's run over `registry`, compiled on first use.  It
    is kept on the specification object for its lifetime, under the
    registry; a copy or an equal tree compiles its own."""
    runs = spec.__dict__.get("_runs")
    if runs is None:
        runs = spec.__dict__["_runs"] = {}
    run = runs.get(registry)
    if run is None:
        run = runs[registry] = _Compiler(registry).compile(spec)
    return run


def _run(spec, registry, values, limits, draw=_exhausted) -> list:
    """The compiled run's gaps; SurplusInputsError if `values` are left over."""
    run = _compiled(spec, registry)
    gaps = run(values, draw, limits.max_loop_iterations, limits.max_trace_length)
    if len(gaps) <= len(values):
        raise SurplusInputsError(len(values) + 1 - len(gaps))
    return gaps


def interpret(
    spec: Spec,
    inputs,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    limits: GenerationLimits = GenerationLimits(),
) -> GeneralizedTrace:
    """The unique generalized trace of the specification on these inputs.

    Raises InputRejectedError if an input falls outside its read's domain,
    InputsExhaustedError if the specification wants more inputs,
    SurplusInputsError if inputs remain when it finishes, and
    LimitExceededError on runaway iteration.
    """
    inputs = tuple(inputs)
    return GeneralizedTrace._of(inputs, tuple(_run(spec, registry, inputs, limits)))


def sample_generalized_trace(
    spec: Spec,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    policy: SamplingPolicy = SamplingPolicy(),
    limits: GenerationLimits = GenerationLimits(),
) -> GeneralizedTrace:
    """Generate a random generalized trace; deterministic in `policy.seed`.

    Inputs are drawn uniformly from `policy.rng()`: integer reads from
    `policy.integer_range`, natural-number reads from
    `policy.natural_range`, and explicit value sets as given (ignoring the
    ranges).  Each draw is the one `rng.randint(lo, hi)`, or
    `rng.choice(sorted(values))` for a set, would make, so a seed samples
    the inputs those calls give.  Raises GenerationFailureError when a
    limit is hit first, which for specifications with very narrow exit
    conditions is the expected outcome rather than a defect.
    """
    ranges = policy.integer_range, policy.natural_range
    return _sample(spec, registry, ranges, policy.rng(), limits)


def _sample(spec, registry, ranges, rng, limits) -> GeneralizedTrace:
    """`sample_generalized_trace` with the policy's two ranges and the
    generator it would start given apart; the test harness calls it with
    a generator of its own each attempt.  The run is given no values, so
    each read calls `draw`, which takes exactly the bits `rng.randint(lo,
    hi)` or `rng.choice(sorted(values))` would, by CPython's own bounded
    loop, so a seed samples the same inputs on every supported Python."""
    drawn: list[int] = []
    getrandbits = rng.getrandbits
    choices: dict[frozenset, tuple] = {}  # each explicit set, sorted once
    # (lo, width, bits) of each range: `randint`'s `_randbelow` draws
    # `bits` random bits until they fall below the width
    (int_lo, int_hi), (nat_lo, nat_hi) = ranges
    ints = int_lo, int_hi - int_lo + 1, (int_hi - int_lo + 1).bit_length()
    nats = nat_lo, nat_hi - nat_lo + 1, (nat_hi - nat_lo + 1).bit_length()

    def draw(position: int, domain: InputDomain) -> int:
        if isinstance(domain, ExplicitSet):
            options = choices.get(domain.values)
            if options is None:
                options = choices[domain.values] = tuple(sorted(domain.values))
            value = rng.choice(options)
        else:
            lo, width, bits = nats if isinstance(domain, Naturals) else ints
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            value = lo + r
        drawn.append(value)
        return value

    try:
        gaps = _run(spec, registry, (), limits, draw)
    except LimitExceededError as err:
        raise GenerationFailureError(str(err)) from err
    return GeneralizedTrace._of(tuple(drawn), tuple(gaps))


# ---------------------------------------------------------------------------
# Trace acceptance


def accept(
    spec: Spec,
    trace: Trace,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    limits: GenerationLimits = GenerationLimits(),
) -> bool:
    """True iff the trace is a valid run of the specification.

    Runs the whole specification on the trace's inputs, as `interpret`
    does, and then checks each output gap: the trace's outputs between two
    inputs, as one word, must be among the words of the writes run between
    the two reads.  The verdict is the same as covering the trace by the
    generalized trace `interpret` gives for its inputs.  An input outside
    its read's domain, a missing input and a surplus input make the trace
    invalid.

    The run goes to the end before any gap is checked, so errors that
    `interpret` raises on the trace's inputs propagate even when the
    trace's outputs go wrong earlier:

    * LimitExceededError when a loop runs more than
      `limits.max_loop_iterations` rounds, e.g. a runaway loop after an
      output mismatch, or when the run's generalized trace would grow past
      `limits.max_trace_length` steps, e.g. on a trace with more inputs
      than that;
    * evaluation errors such as UnboundCurrentError when the inputs lead to
      a current-value use of a variable not read on that path, even if
      the trace mismatches before reaching it.
    """
    try:
        gaps = _run(spec, registry, trace.input_values, limits)
    except InterpretError:
        return False
    return first_uncovered(gaps, trace.gaps) is None
