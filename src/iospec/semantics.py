"""Interpreters over specifications: trace generation and trace acceptance.

:func:`interpret` runs a specification on a fixed input sequence and
returns the one generalized trace describing every valid run on those
inputs.  :func:`sample_generalized_trace` does the same with randomly
drawn inputs, which is what the test harness feeds on.  Both share one
walk that follows the tree's structure: a sequence runs its actions in
order, a branch runs the arm its condition picks, and a loop re-runs its
body until an exit marker inside it fires.  An exit cuts short every
enclosing sequence up to its loop, which discards whatever else was left
of that round.  Each loop counts its rounds, so a runaway loop hits a
configurable limit instead of spinning forever.

A specification is compiled once per registry into a tree of closures,
one per node, each taking the run's state as its argument; every later
run on the same (equal) specification and registry reuses it from a
bounded cache.  Compiling reads nothing of the run: the limits and the
inputs belong to each call.  Evaluation errors stay where the run meets
them, so a bad term on a path the inputs never take raises nothing.

:func:`accept` decides whether an ordinary trace is a valid run.  Writes
never change the environment, so a run's inputs alone fix the control
flow: the run is valid iff it is covered by the generalized trace its
inputs produce.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from .environment import compile_term, compile_write
from .syntax import (
    Branch,
    DEFAULT_REGISTRY,
    ExplicitSet,
    Exit,
    FunctionRegistry,
    InputDomain,
    Naturals,
    ReadInput,
    Spec,
    TillExit,
    WriteOutput,
)
from .traces import (
    Covered,
    GeneralizedTrace,
    GenStep,
    In,
    OutputWordSet,
    Trace,
    covers,
    normalize,
)


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


class LimitExceededError(Exception):
    """A generation limit was hit before the run finished."""


class SpecStructureError(Exception):
    """An exit marker fired with no enclosing iteration (statically
    ruled out for well-formed specifications)."""


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


class _Walk:
    """The state of one run of a specification, pulling inputs from `draw`.

    Output sets of back-to-back writes are fused into one word set, the
    product of theirs, so the trace never holds two output steps in a row.
    """

    __slots__ = ("draw", "limits", "env", "steps", "pending", "inputs_used")

    def __init__(self, draw, limits) -> None:
        self.draw = draw
        self.limits = limits
        self.env: dict[str, list[int]] = {}
        self.steps: list[GenStep] = []
        self.pending: list[OutputWordSet] = []
        self.inputs_used = 0

    def flush(self) -> None:
        if self.pending:
            self.steps.append(OutputWordSet.concat(self.pending))
            self.pending = []


# A compiled sequence of actions: runs them on a walk and returns True when
# an exit cut them short.
_Step = Callable[[_Walk], bool]


def _compile_actions(actions, registry) -> _Step:
    steps = [_compile_action(action, registry) for action in actions]
    if len(steps) == 1:
        return steps[0]

    def sequence(walk: _Walk) -> bool:
        for step in steps:
            if step(walk):
                return True
        return False

    return sequence


def _compile_action(action, registry) -> _Step:
    if isinstance(action, ReadInput):
        var, domain = action.var, action.domain

        def read(walk: _Walk) -> bool:
            value = walk.draw(walk.inputs_used, domain)
            walk.flush()
            walk.steps.append(In(value))
            if len(walk.steps) > walk.limits.max_trace_length:
                raise LimitExceededError(
                    f"trace grew past {walk.limits.max_trace_length} steps"
                )
            walk.env.setdefault(var, []).append(value)
            walk.inputs_used += 1
            return False

        return read
    if isinstance(action, WriteOutput):
        output_set = compile_write(action, registry)

        def write(walk: _Walk) -> bool:
            walk.pending.append(output_set(walk.env))
            return False

        return write
    if isinstance(action, Branch):
        condition = compile_term(action.condition, registry)
        if_true = _compile_actions(action.true_branch.actions, registry)
        if_false = _compile_actions(action.false_branch.actions, registry)
        return lambda walk: (if_true if condition(walk.env) else if_false)(walk)
    if isinstance(action, TillExit):
        body = _compile_actions(action.body.actions, registry)

        def loop(walk: _Walk) -> bool:
            rounds = 1
            while not body(walk):
                rounds += 1
                if rounds > walk.limits.max_loop_iterations:
                    raise LimitExceededError(
                        f"loop ran more than {walk.limits.max_loop_iterations} rounds"
                    )
            return False

        return loop
    if isinstance(action, Exit):
        return lambda walk: True

    def not_an_action(walk: _Walk) -> bool:
        raise TypeError(f"not an action: {action!r}")

    return not_an_action


# How many compiled (specification, registry) pairs are kept.
COMPILED_CACHE_SIZE = 64


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _compiled(spec: Spec, registry: FunctionRegistry) -> _Step:
    return _compile_actions(spec.actions, registry)


def _generate(spec, draw, registry, limits) -> tuple[GeneralizedTrace, int]:
    """Run the specification, pulling each input from `draw(position, domain)`;
    returns the trace and the number of inputs drawn."""
    try:
        run = _compiled(spec, registry)
    except TypeError:  # a hand-built tree holding something unhashable
        run = _compile_actions(spec.actions, registry)
    walk = _Walk(draw, limits)
    if run(walk):
        raise SpecStructureError("exit marker outside any loop")
    walk.flush()
    return GeneralizedTrace(tuple(walk.steps)), walk.inputs_used


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
    values = list(inputs)

    def draw(position: int, domain: InputDomain) -> int:
        if position >= len(values):
            raise InputsExhaustedError(position)
        value = values[position]
        if not domain.contains(value):
            raise InputRejectedError(position, value, domain)
        return value

    gt, used = _generate(spec, draw, registry, limits)
    if used < len(values):
        raise SurplusInputsError(len(values) - used)
    return gt


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
    rng = random.Random(policy.seed)

    def draw(position: int, domain: InputDomain) -> int:
        if isinstance(domain, ExplicitSet):
            return rng.choice(sorted(domain.values))
        lo, hi = (
            policy.natural_range
            if isinstance(domain, Naturals)
            else policy.integer_range
        )
        return rng.randint(lo, hi)

    try:
        return _generate(spec, draw, registry, limits)[0]
    except LimitExceededError as err:
        raise GenerationFailureError(str(err)) from err


# ---------------------------------------------------------------------------
# Trace acceptance


def accept(
    spec: Spec,
    trace: Trace,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    limits: GenerationLimits = GenerationLimits(),
) -> bool:
    """True iff the trace is a valid run of the specification.

    The specification is interpreted on the trace's inputs and the
    normalized trace must be covered by the resulting generalized trace.
    An input outside its read's domain, a missing input and a surplus input
    make the trace invalid.

    Because the whole specification runs on the inputs before any output
    is compared, errors that `interpret` raises on those inputs propagate
    even when the trace's outputs go wrong earlier:

    * LimitExceededError when a loop runs more than
      `limits.max_loop_iterations` rounds, e.g. a runaway loop after an
      output mismatch, or when the generalized trace grows past
      `limits.max_trace_length` steps, e.g. on a trace with more inputs
      than that;
    * evaluation errors such as UnboundCurrentError when the inputs lead to
      a current-value use of a variable not read on that path, even if
      the trace mismatches before reaching it.
    """
    try:
        gt = interpret(spec, trace.inputs(), registry, limits)
    except InterpretError:
        return False
    return isinstance(covers(gt, normalize(trace)), Covered)
