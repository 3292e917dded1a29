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
top level becomes one function and each loop another, with the variable
histories as local lists: a branch is an `if`, a loop a `while True` with
its own round counter, an exit a `break`, and a term an inline expression
(see `environment`).  Every value of the tree is bound in the code's
namespace, never written into its text.  The code is generated and
compiled the first time a specification is run with a registry, which
costs a few tenths of a millisecond for `tests/data/sum.iospec` on a
2-vCPU x86_64 host; later runs on the same (equal) specification and
registry reuse it from a bounded cache.
Compiling reads nothing of the run: the limits and the inputs belong to
each call.  Evaluation errors stay where the run meets them, so a bad term
on a path the inputs never take raises nothing, and an exit outside all
loops raises `SpecStructureError` when a run reaches it.  A hand-built
tree nested deeper than `parser.MAX_NESTING` levels raises
`SpecStructureError` when compiled, as its code would pass CPython's
limits on nested blocks and expressions; a parsed one never nests deeper.

:func:`accept` decides whether an ordinary trace is a valid run.  Writes
never change the environment, so a run's inputs alone fix the control
flow: the run is valid iff it is covered by the generalized trace its
inputs produce.  A trace is stored as its inputs and one output word per
gap (the outputs before each input, then those after the last); `accept`
runs the specification on those inputs to the end, and then checks each
gap's word against the writes run in that gap, with the same gap check as
`traces.covers`; same verdict as covers∘interpret.

A run reads its inputs one call each, and each read closes the output gap
before it: a compiled write yields only its factor, the frozenset of
words it may emit, and the gap is the tuple of the factors written since
the previous read, or () where nothing was.  A generalized trace is kept
in that form, its inputs and its gaps, so neither interpreter builds an
input step or output set for the steps of a run.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from .environment import COMPILED_CACHE_SIZE, Emitter, cached, too_deep
from .parser import MAX_NESTING
from .syntax import (
    Branch,
    DEFAULT_REGISTRY,
    ExplicitSet,
    Exit,
    FunctionRegistry,
    InputDomain,
    Integers,
    Naturals,
    ReadInput,
    Spec,
    SpecStructureError,
    TillExit,
    WriteOutput,
)
from .traces import GeneralizedTrace, Trace, first_uncovered


@dataclass(frozen=True)
class GenerationLimits:
    """Runtime bounds substituting for static termination checks."""

    max_loop_iterations: int = 1000
    max_trace_length: int = 10000

    def __post_init__(self) -> None:
        if self.max_loop_iterations < 1 or self.max_trace_length < 1:
            raise ValueError("limits must be at least 1")


@dataclass(frozen=True)
class SamplingPolicy:
    """Inclusive ranges inputs are drawn from, plus the generator seed."""

    integer_range: tuple[int, int] = (-10, 10)
    natural_range: tuple[int, int] = (0, 10)
    seed: int = 0

    def __post_init__(self) -> None:
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


def _too_many_rounds(limit):
    raise LimitExceededError(f"loop ran more than {limit} rounds")


def _orphan_exit():
    raise SpecStructureError("exit marker outside any loop")


def _not_an_action(message):
    raise TypeError(message)


# Every function of a compiled specification takes the run's state:
# `read(domain)`, which takes the next input and closes the output gap
# before it, the `pending` factors of the writes since the last read (the
# gap the next read or the end closes), the call's limit on loop rounds,
# and every variable's history.

_STATE = "read, pending, max_rounds"

# Stands for the whole state in a loop call, until every variable is known.
_ALL_STATE = "@state"

_LOOP_HEAD = """\
def {name}({state}):
    rounds = 1
    while True:"""

_LOOP_TAIL = """\
        rounds += 1
        if rounds > max_rounds:
            too_many_rounds(max_rounds)"""


class _Compiler:
    """Python source for a specification over one registry: the top level
    is the function `run(read, pending, max_rounds)`, and each loop is a
    function of its own, so that no function nests loops (CPython allows
    only 20 nested blocks).  Inside a function, histories are local lists,
    a branch is an `if` and an exit is a `break`."""

    def __init__(self, registry: FunctionRegistry) -> None:
        self.emitter = Emitter(
            registry,
            too_many_rounds=_too_many_rounds,
            orphan_exit=_orphan_exit,
            not_an_action=_not_an_action,
        )
        self.loops: list[tuple[str, list[str]]] = []  # name, indented body

    def compile(self, spec: Spec) -> Callable:
        body = self.block(spec.actions, 0, False, "    ")
        histories = self.emitter.histories()
        state = ", ".join([_STATE, *histories])
        parts = [f"def run({_STATE}):", *[f"    {h} = []" for h in histories], *body]
        for name, loop_body in self.loops:
            parts += [_LOOP_HEAD.format(name=name, state=state), *loop_body, _LOOP_TAIL]
        source = "\n".join(parts).replace(_ALL_STATE, state)
        return self.emitter.define(source + "\n", "run")

    def block(self, actions, level: int, in_loop: bool, pad: str) -> list[str]:
        if level > MAX_NESTING:
            raise too_deep()
        lines: list[str] = []
        for action in actions:
            lines += self.action(action, level, in_loop, pad)
        return lines or [pad + "pass"]

    def action(self, action, level: int, in_loop: bool, pad: str) -> list[str]:
        emit = self.emitter
        if isinstance(action, ReadInput):
            domain = emit.bind(action.domain, "d")
            return [f"{pad}{emit.history(action.var)}.append(read({domain}))"]
        if isinstance(action, WriteOutput):
            return [f"{pad}pending.append({emit.factor(action, level)})"]
        if isinstance(action, Branch):
            inner = pad + "    "
            return [
                f"{pad}if {emit.term(action.condition, level)}:",
                *self.block(action.true_branch.actions, level + 1, in_loop, inner),
                f"{pad}else:",
                *self.block(action.false_branch.actions, level + 1, in_loop, inner),
            ]
        if isinstance(action, TillExit):
            name = emit.fresh("loop")
            body = self.block(action.body.actions, level + 1, True, " " * 8)
            self.loops.append((name, body))
            return [f"{pad}{name}({_ALL_STATE})"]
        if isinstance(action, Exit):
            return [pad + ("break" if in_loop else "orphan_exit()")]
        message = emit.bind(f"not an action: {action!r}", "m")
        return [f"{pad}not_an_action({message})"]


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _compiled(spec: Spec, registry: FunctionRegistry) -> Callable:
    return _Compiler(registry).compile(spec)


def _generate(spec, registry, limits, values, draw=None) -> tuple[tuple, list]:
    """Run the specification; return the inputs it read and its gaps.

    Each read takes the next of the fixed `values`, or, when `draw` is
    given, `draw(domain)`.  The writes between two reads fill one gap of
    the run: their factors wait in `pending` until the next read or the
    end closes the gap, as the tuple of them, or () where nothing was
    written.  A run's generalized trace holds one step per input and one
    per non-empty gap, and growing it past `limits.max_trace_length`
    steps stops the run.
    """
    run = cached(_compiled, spec, registry)
    gaps: list[tuple] = []
    pending: list[frozenset] = []
    close = gaps.append
    count = len(values)
    drawn = values if draw is None else []
    max_steps = limits.max_trace_length
    steps = 0

    def read(domain: InputDomain) -> int:
        nonlocal steps
        used = len(gaps)
        if draw is not None:
            value = draw(domain)
            drawn.append(value)
        elif used == count:
            raise InputsExhaustedError(used)
        else:
            value = values[used]
            # every value is an integer: skip the call for the common domain
            if type(domain) is not Integers and not domain.contains(value):
                raise InputRejectedError(used, value, domain)
        if pending:
            steps += 2
            close(tuple(pending))
            pending.clear()
        else:
            steps += 1
            close(())
        if steps > max_steps:
            raise LimitExceededError(f"trace grew past {max_steps} steps")
        return value

    run(read, pending, limits.max_loop_iterations)
    close(tuple(pending))
    return tuple(drawn), gaps


def _run_on(spec, inputs, registry, limits) -> list[tuple]:
    """The gaps of the specification's run on a fixed input sequence (see
    `interpret` for what it raises)."""
    values, gaps = _generate(spec, registry, limits, inputs)
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
    return GeneralizedTrace._of(inputs, tuple(_run_on(spec, inputs, registry, limits)))


def sample_generalized_trace(
    spec: Spec,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    policy: SamplingPolicy = SamplingPolicy(),
    limits: GenerationLimits = GenerationLimits(),
) -> GeneralizedTrace:
    """Generate a random generalized trace; deterministic in `policy.seed`.

    Inputs are drawn uniformly: integer reads from `policy.integer_range`,
    natural-number reads from `policy.natural_range`, and explicit value
    sets as given (ignoring the ranges).  Raises GenerationFailureError
    when a limit is hit first, which for specifications with very narrow
    exit conditions is the expected outcome rather than a defect.
    """
    rng = policy.rng()

    def draw(domain: InputDomain) -> int:
        if isinstance(domain, ExplicitSet):
            return rng.choice(sorted(domain.values))
        lo, hi = (
            policy.natural_range
            if isinstance(domain, Naturals)
            else policy.integer_range
        )
        return rng.randint(lo, hi)

    try:
        inputs, gaps = _generate(spec, registry, limits, (), draw)
    except LimitExceededError as err:
        raise GenerationFailureError(str(err)) from err
    return GeneralizedTrace._of(inputs, tuple(gaps))


# ---------------------------------------------------------------------------
# Trace acceptance


def accept(
    spec: Spec,
    trace: Trace,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    limits: GenerationLimits = GenerationLimits(),
) -> bool:
    """True iff the trace is a valid run of the specification.

    Runs the whole specification on the trace's inputs, then checks each
    output gap: the trace's outputs between two inputs, as one word, must
    be among the words of the writes run between the two reads.  The
    verdict is the same as covering the trace by the generalized trace
    `interpret` gives for its inputs.  An input outside its read's
    domain, a missing input and a surplus input make the trace invalid.

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
        gaps = _run_on(spec, trace.input_values, registry, limits)
    except InterpretError:
        return False
    return first_uncovered(gaps, trace.gaps) is None
