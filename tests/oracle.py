"""Reference acceptance checker: a backtracking walk over the specification.

This is an implementation of trace acceptance independent of the library's
`accept`, which checks a run by interpreting the specification on the run's
inputs and covering the run with the result.  Here the specification is
walked directly against the trace, exploring both readings of every
skippable write.  The equivalence tests compare the two.

The walk keeps an explicit stack of iteration frames standing in for
continuations.  A frame remembers the loop body (to re-run when the body's
sequence ends) and the actions following the whole loop (to resume on an
exit marker, which discards whatever else was queued inside the loop).
Alternatives share environments, so an environment is a persistent mapping
from each variable to the tuple of values read into it.
"""

from iospec import (
    DEFAULT_REGISTRY,
    Branch,
    Exit,
    FunctionRegistry,
    GenerationLimits,
    In,
    LimitExceededError,
    Out,
    ReadInput,
    Spec,
    TillExit,
    Trace,
    WriteOutput,
    eval_term,
    normalize_spec,
)
from iospec.semantics import SpecStructureError


def store(name: str, value: int, env: dict) -> dict:
    """Successor environment with `value` appended to `name`'s history."""
    return {**env, name: env.get(name, ()) + (value,)}


def accept(
    spec: Spec,
    trace: Trace,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    limits: GenerationLimits = GenerationLimits(),
) -> bool:
    """True iff the trace is a valid run of the specification.

    A read step must face a matching input inside its domain; a write step
    must face an output evaluating into its term set, except that a write
    allowing epsilon may also be skipped outright, so both readings are
    explored.  Branches choose by the current environment, loops re-run
    their body when it ends and resume after themselves on an exit marker,
    and the run is valid when specification and trace are exhausted
    together.

    Raises LimitExceededError when some reading re-enters a loop more than
    `limits.max_loop_iterations` times, and propagates evaluation errors.
    """
    spec = normalize_spec(spec)
    steps = trace.steps
    env0: dict[str, tuple[int, ...]] = {}
    # Alternatives stack: depth-first over the skippable-write choices.
    alternatives = [(spec.actions, (), 0, env0)]
    while alternatives:
        cur, frames, pos, env = alternatives.pop()
        while True:
            if not cur:
                if not frames:
                    if pos == len(steps):
                        return True
                    break
                body, rest, rounds = frames[-1]
                if rounds + 1 > limits.max_loop_iterations:
                    raise LimitExceededError(
                        f"loop ran more than {limits.max_loop_iterations} rounds"
                    )
                frames = frames[:-1] + ((body, rest, rounds + 1),)
                cur = body
                continue
            head = cur[0]
            if isinstance(head, ReadInput):
                if (
                    pos < len(steps)
                    and isinstance(steps[pos], In)
                    and head.domain.contains(steps[pos].value)
                ):
                    env = store(head.var, steps[pos].value, env)
                    pos += 1
                    cur = cur[1:]
                    continue
                break
            if isinstance(head, WriteOutput):
                allowed = {eval_term(t, env, registry) for t in head.terms}
                if head.includes_epsilon:
                    alternatives.append((cur[1:], frames, pos, env))
                if (
                    pos < len(steps)
                    and isinstance(steps[pos], Out)
                    and steps[pos].value in allowed
                ):
                    pos += 1
                    cur = cur[1:]
                    continue
                break
            if isinstance(head, Branch):
                taken = (
                    head.true_branch
                    if eval_term(head.condition, env, registry)
                    else head.false_branch
                )
                cur = taken.actions + cur[1:]
                continue
            if isinstance(head, TillExit):
                frames = frames + ((head.body.actions, cur[1:], 1),)
                cur = head.body.actions
                continue
            if isinstance(head, Exit):
                if not frames:
                    raise SpecStructureError("exit marker outside any loop")
                _, rest, _ = frames[-1]
                frames = frames[:-1]
                cur = rest
                continue
            raise TypeError(f"not an action: {head!r}")
    return False
