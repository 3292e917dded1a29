"""Reference implementations the library is checked against.

`accept` decides trace acceptance independently of the library's `accept`,
which runs the whole specification on the trace's inputs and checks each
output gap as the run closes it, with the same verdict as covers∘interpret.
Here the specification is walked directly against the trace, exploring
both readings of every skippable write.  The equivalence tests compare
the three (acceptance criterion 04).

The walk keeps an explicit stack of iteration frames standing in for
continuations.  A frame remembers the loop body (to re-run when the body's
sequence ends) and the actions following the whole loop (to resume on an
exit marker, which discards whatever else was queued inside the loop).
Alternatives share environments, so an environment is a persistent mapping
from each variable to the tuple of values read into it.  Terms are
evaluated here too, by a plain walk over that mapping, not by the
library's compiled code, so a fault in the term compiler shows as a
disagreement.

`covers` is the covering check as a walk over both traces' steps, the
reference for the library's `covers`, which compares the inputs and then
each output gap.  `concretize` enumerates every run a generalized trace
represents, the brute-force counterpart of both (acceptance criterion 05).
"""

import itertools

from iospec import (
    DEFAULT_REGISTRY,
    AlignmentMismatch,
    AllVar,
    Apply,
    Covered,
    CurrentVar,
    EPSILON,
    Branch,
    EvalError,
    Exit,
    FunctionRegistry,
    GeneralizedTrace,
    GenerationLimits,
    In,
    IntConst,
    LimitExceededError,
    Out,
    OutputMismatch,
    OutputWordSet,
    PreconditionViolation,
    ReadInput,
    Spec,
    TillExit,
    Trace,
    UnboundCurrentError,
    WriteOutput,
    normalize_spec,
)
from iospec.semantics import SpecStructureError
from iospec.traces import CoverageResult


def store(name: str, value: int, env: dict) -> dict:
    """Successor environment with `value` appended to `name`'s history."""
    return {**env, name: env.get(name, ()) + (value,)}


def eval_term(term, env: dict, registry: FunctionRegistry):
    """The value of a sort-correct term over the environment's histories."""
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, CurrentVar):
        history = env.get(term.name, ())
        if not history:
            raise UnboundCurrentError(term.name)
        return history[-1]
    if isinstance(term, AllVar):
        return list(env.get(term.name, ()))
    if isinstance(term, Apply):
        entry = registry.lookup(term.fn)
        if entry is None:
            raise EvalError(f"unknown function {term.fn!r}")
        return entry.fn(*[eval_term(arg, env, registry) for arg in term.args])
    raise EvalError(f"not a term: {term!r}")


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


def covers(gt: GeneralizedTrace, nt: GeneralizedTrace) -> CoverageResult:
    """Is the normalized run `nt` among the runs `gt` represents?

    Walks both traces' steps left to right: inputs must agree, an output
    word must be an element of the facing word set, and a set containing
    the empty word may be skipped entirely.  Since neither side may hold
    two output steps in a row, a skippable set facing a produced word can
    never be satisfied by skipping (the word would then face an input or
    the end), so the walk needs no backtracking and the reported mismatch
    is the earliest one.  Output mismatches win over alignment mismatches
    when both readings fail at the same step.
    """
    gsteps, nsteps = gt.steps, nt.steps
    for step in nsteps:
        if not isinstance(step, OutputWordSet):
            continue
        # one non-empty word, checked on the factors: every factor holds
        # one word, and not every factor holds only the empty one
        if step.includes_epsilon or any(len(f) != 1 for f in step.factors):
            raise PreconditionViolation(
                "left side of the covering check must come from normalize()"
            )
    i = j = 0
    while True:
        expected = gsteps[j] if j < len(gsteps) else None
        got = nsteps[i] if i < len(nsteps) else None
        if expected is None and got is None:
            return Covered()
        if isinstance(expected, OutputWordSet):
            if isinstance(got, OutputWordSet):
                (word,) = got.words
                if word in expected.words:
                    i += 1
                    j += 1
                    continue
                return OutputMismatch(word, expected, i)
            if expected.includes_epsilon:
                j += 1
                continue
            return AlignmentMismatch(expected, got, i)
        if isinstance(expected, In) and isinstance(got, In):
            if expected.value == got.value:
                i += 1
                j += 1
                continue
        return AlignmentMismatch(expected, got, i)


class BoundExceededError(Exception):
    """More than `bound` concretizations; `count` is a lower bound on how
    many there are, taken where counting stopped."""

    def __init__(self, count: int, bound: int):
        super().__init__(f"at least {count} concretizations exceed the bound of {bound}")
        self.count = count
        self.bound = bound


def _words(word_set: OutputWordSet, bound: int | None) -> set | None:
    """The words of the set, or None once they are more than `bound`.
    Appending a factor never shrinks the set (a fixed suffix maps words
    one-to-one), so an early prefix over the bound decides it."""
    words = {EPSILON}
    for factor in word_set.factors:
        words = {a + b for a in words for b in factor}
        if bound is not None and len(words) > bound:
            return None
    return words


def concretize(
    gt: GeneralizedTrace, bound: int | None = None
) -> set[GeneralizedTrace]:
    """Every run the generalized trace represents, as normalized traces.

    One word is chosen per output set; choosing the empty word drops the
    step.  Raises BoundExceededError when more than `bound` choices exist;
    each set's words are then built only until that is certain, so the
    check costs at most about `bound` words per set.  Without a bound,
    every set's whole language is built.
    """
    choice_points = []
    count = 1
    for s in gt.steps:
        if not isinstance(s, OutputWordSet):
            continue
        words = _words(s, bound)
        if words is None:
            raise BoundExceededError(bound + 1, bound)
        count *= len(words)
        if bound is not None and count > bound:
            raise BoundExceededError(count, bound)
        choice_points.append(sorted(words, key=lambda w: (len(w), w)))

    results: set[GeneralizedTrace] = set()
    for choice in itertools.product(*choice_points):
        picked = iter(choice)
        steps = []
        for step in gt.steps:
            if isinstance(step, OutputWordSet):
                word = next(picked)
                if word != EPSILON:
                    steps.append(OutputWordSet(frozenset({word})))
            else:
                steps.append(step)
        results.add(GeneralizedTrace(tuple(steps)))
    return results
