"""The end-to-end test loop: sample, run, check coverage, report.

Each test round samples a generalized trace from the specification,
extracts its input sequence, runs the program under test on those inputs,
and checks that the recorded run is covered.  The check reads the run's
own inputs and gaps, the word printed in each, and so needs no
normalized trace: it is the gap check inside `traces.covers`, and gives
the verdict and mismatch `covers(gt, normalize(run))` would.  The first
uncovered run (or abnormal program exit) falsifies; if generation keeps
failing, the verdict is GenerationStuck rather than a failure of the
program, since narrow branching conditions can make random generation
hopeless.
"""

from __future__ import annotations

import enum
import random

from .runner import (
    ExitKind,
    RunOutcome,
    ScriptedProgram,
    SubprocessConfig,
    run_scripted,
    run_subprocess,
)
from .semantics import (
    GenerationFailureError,
    GenerationLimits,
    SamplingPolicy,
    _sample,
)
from .syntax import DEFAULT_REGISTRY, FunctionRegistry, Spec, _Record
from .traces import (
    AlignmentMismatch,
    CoverageResult,
    Covered,
    GeneralizedTrace,
    GenStep,
    In,
    OutputMismatch,
    OutputWordSet,
    Trace,
    _cover,
    render_trace,
)


class ConfigError(Exception):
    pass


class ReportFormat(enum.Enum):
    HUMAN = "human"
    MACHINE_LINES = "machine"


class FeedbackMode(enum.Enum):
    FULL = "full"          # show the whole generalized trace
    EXAMPLE = "example"    # show just one valid run for the inputs


class TestConfig(_Record):
    __test__ = False  # domain class, not a pytest suite

    num_tests: int = 100
    policy: SamplingPolicy = SamplingPolicy()
    limits: GenerationLimits = GenerationLimits()
    max_generation_attempts: int = 10

    def __post_init__(self) -> None:
        for name, kind in (("num_tests", int), ("policy", SamplingPolicy),
                           ("limits", GenerationLimits), ("max_generation_attempts", int)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                article = "an" if kind is int else "a"
                raise TypeError(f"{name} must be {article} {kind.__name__}, got {value!r}")
        if self.num_tests < 1:
            raise ConfigError("num_tests must be at least 1")
        if self.max_generation_attempts < 1:
            raise ConfigError("max_generation_attempts must be at least 1")


class Verdict(enum.Enum):
    ALL_PASSED = "AllPassed"
    FALSIFIED = "Falsified"
    GENERATION_STUCK = "GenerationStuck"


class Counterexample(_Record):
    inputs: tuple[int, ...]
    expected: GeneralizedTrace
    actual: Trace
    error: CoverageResult
    exit_kind: ExitKind
    run_detail: str = ""


class TestReport(_Record):
    __test__ = False  # domain class, not a pytest suite

    verdict: Verdict
    tests_run: int
    seed: int
    counterexample: Counterexample | None = None
    detail: str = ""


Target = ScriptedProgram | SubprocessConfig


def _run_target(target: Target, inputs) -> RunOutcome:
    if isinstance(target, SubprocessConfig):
        return run_subprocess(target, inputs)
    return run_scripted(target, inputs)


def run_test_suite(
    spec: Spec,
    target: Target,
    cfg: TestConfig = TestConfig(),
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> TestReport:
    """Run up to `cfg.num_tests` randomized rounds against the target.

    Deterministic for a given configuration and scripted target: all
    per-round sampling seeds derive from `cfg.policy.seed`.
    """
    ranges = cfg.policy.integer_range, cfg.policy.natural_range
    rng = cfg.policy.rng()
    for test_index in range(cfg.num_tests):
        gt = None
        last_failure = None
        for _ in range(cfg.max_generation_attempts):
            # the generator `SamplingPolicy(..., seed=derived).rng()` starts:
            # a derived seed is never negative
            attempt_rng = random.Random(rng.getrandbits(64))
            try:
                gt = _sample(spec, registry, ranges, attempt_rng, cfg.limits)
                break
            except GenerationFailureError as err:
                last_failure = err
        if gt is None:
            return TestReport(
                Verdict.GENERATION_STUCK,
                tests_run=test_index,
                seed=cfg.policy.seed,
                detail=(
                    f"gave up after {cfg.max_generation_attempts} attempts: "
                    f"{last_failure}"
                ),
            )
        inputs = gt.input_values
        outcome = _run_target(target, inputs)
        actual = outcome.trace
        # covers(gt, normalize(actual)), checked on the run's own gaps
        result = _cover(gt, actual.input_values, actual.gaps)
        if not isinstance(result, Covered) or not outcome.clean:
            return TestReport(
                Verdict.FALSIFIED,
                tests_run=test_index + 1,
                seed=cfg.policy.seed,
                counterexample=Counterexample(
                    inputs=inputs,
                    expected=gt,
                    actual=actual,
                    error=result,
                    exit_kind=outcome.exit_kind,
                    run_detail=outcome.detail,
                ),
            )
    return TestReport(Verdict.ALL_PASSED, tests_run=cfg.num_tests, seed=cfg.policy.seed)


# ---------------------------------------------------------------------------
# Feedback


def _render_plain_step(step: GenStep | None) -> str:
    # a step of a *normalized* trace, shown the way the program printed it
    if step is None:
        return "stop"
    if isinstance(step, In):
        return str(step)
    word = next(iter(step.words))
    return " ".join(f"!{v}" for v in word)


def _render_gen_step(step: GenStep | None) -> str:
    return "stop" if step is None else str(step)


def _example_run(gt: GeneralizedTrace) -> Trace:
    # one valid run: the smallest real word of every output gap
    words = [OutputWordSet._of(gap).smallest_word() if gap else () for gap in gt.gaps]
    return Trace._of(gt.input_values, tuple(words))


def format_feedback(
    report: TestReport,
    report_format: ReportFormat = ReportFormat.HUMAN,
    feedback_mode: FeedbackMode = FeedbackMode.FULL,
) -> str:
    if report_format is ReportFormat.MACHINE_LINES:
        return _machine_lines(report)
    if report.verdict is Verdict.ALL_PASSED:
        plural = "" if report.tests_run == 1 else "s"
        return f"+++ OK, passed {report.tests_run} test{plural}."
    if report.verdict is Verdict.GENERATION_STUCK:
        return (
            "*** Gave up! Could not generate a test case:\n" + report.detail
        )
    ce = report.counterexample
    lines = ["*** Failed! Falsifiable:"]
    lines.append("Input sequence: " + " ".join(f"?{v}" for v in ce.inputs))
    if feedback_mode is FeedbackMode.EXAMPLE:
        lines.append("Expected run (example): " + render_trace(_example_run(ce.expected)))
    else:
        lines.append("Expected run (generalized): " + render_trace(ce.expected))
    lines.append("Actual run: " + render_trace(ce.actual))
    lines.append("Error:")
    if isinstance(ce.error, AlignmentMismatch):
        lines.append("  AlignmentMismatch:")
        lines.append(f"    Expected: {_render_gen_step(ce.error.expected)}")
        lines.append(f"    Got: {_render_plain_step(ce.error.got)}")
    elif isinstance(ce.error, OutputMismatch):
        lines.append("  OutputMismatch:")
        word = " ".join(str(v) for v in ce.error.word)
        allowed = str(ce.error.allowed)[1:]  # the set without the ! marker
        lines.append(f"    the value {word} is not covered by {allowed}")
    else:
        lines.append(f"  AbnormalExit: {ce.exit_kind.value}")
        if ce.run_detail:
            lines.append(f"    {ce.run_detail}")
    if not isinstance(ce.error, Covered) and ce.exit_kind is not ExitKind.CLEAN_HALT:
        # the mismatch may only be a symptom of why the run ended
        lines.append("  AbnormalExit: " + ": ".join(
            part for part in (ce.exit_kind.value, ce.run_detail) if part))
    return "\n".join(lines)


def _machine_lines(report: TestReport) -> str:
    lines = [
        f"verdict={report.verdict.value}",
        f"tests={report.tests_run}",
        f"seed={report.seed}",
    ]
    if report.verdict is Verdict.GENERATION_STUCK:
        lines.append(f"error={report.detail}")
    ce = report.counterexample
    if ce is not None:
        lines.append("inputs=" + ",".join(str(v) for v in ce.inputs))
        lines.append("expected=" + render_trace(ce.expected))
        lines.append("actual=" + render_trace(ce.actual))
        if isinstance(ce.error, AlignmentMismatch):
            lines.append("error=AlignmentMismatch")
            lines.append(f"expected_step={_render_gen_step(ce.error.expected)}")
            lines.append(f"got_step={_render_plain_step(ce.error.got)}")
        elif isinstance(ce.error, OutputMismatch):
            lines.append("error=OutputMismatch")
            lines.append("word=" + " ".join(str(v) for v in ce.error.word))
            lines.append(f"allowed={str(ce.error.allowed)[1:]}")
        else:
            lines.append(f"error=AbnormalExit:{ce.exit_kind.value}")
        lines.append(f"exit_kind={ce.exit_kind.value}")
        lines.append(f"run_detail={ce.run_detail}")
    return "\n".join(lines)
