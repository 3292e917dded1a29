"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import sys
import time
from contextlib import contextmanager

import pytest

from iospec import (
    AlignmentMismatch,
    Counterexample,
    Covered,
    ExitKind,
    GeneralizedTrace,
    GenerationFailureError,
    GenerationLimits,
    In,
    InputRejectedError,
    InputsExhaustedError,
    OutputMismatch,
    OutputWordSet,
    SamplingPolicy,
    SubprocessConfig,
    SurplusInputsError,
    TestConfig,
    TestReport,
    UnboundCurrentError,
    Verdict,
    accept,
    concretize,
    covers,
    format_feedback,
    interpret,
    normalize,
    parse_spec,
    parse_trace,
    render_spec,
    render_trace,
    run_subprocess,
    run_test_suite,
    sample_generalized_trace,
)

from conftest import (
    STUCK_SPEC,
    SUM_SPEC_PLAIN_TEXT,
    SUM_SPEC_TEXT,
    fixture_command,
)
import oracle
import programs
from randgen import (
    concretization_as_trace,
    mutate_trace,
    random_generalized_trace,
    random_spec,
)


@contextmanager
def time_budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def report_pass(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}", file=sys.stderr, flush=True)


def ows(*words):
    return OutputWordSet(frozenset(words))


@pytest.fixture(scope="module")
def sum_spec():
    return parse_spec(SUM_SPEC_TEXT)


@pytest.fixture(scope="module")
def sum_spec_plain():
    return parse_spec(SUM_SPEC_PLAIN_TEXT)


def test_criterion_01_golden_acceptance(sum_spec):
    with time_budget(1.0):
        assert accept(sum_spec, parse_trace("?2 ?5 ?3 !8 stop")) is True
        assert (
            accept(sum_spec, parse_trace("?3 !4 ?-1 !2 ?7 !1 ?4 !10 stop")) is False
        )
    report_pass(1, "golden trace acceptance verdicts")


def test_criterion_02_golden_interpretation(sum_spec):
    rng = random.Random(2)
    with time_budget(1.0):
        assert interpret(sum_spec, [0]) == GeneralizedTrace((In(0), ows((0,))))
        for _ in range(20):
            v1 = rng.randint(-10, 10)
            v2 = rng.randint(-10, 10)
            assert interpret(sum_spec, [1, v1]) == GeneralizedTrace(
                (In(1), ows((), (1,)), In(v1), ows((v1,)))
            )
            assert interpret(sum_spec, [2, v1, v2]) == GeneralizedTrace(
                (In(2), ows((), (2,)), In(v1), ows((), (1,)), In(v2),
                 ows((v1 + v2,)))
            )
    report_pass(2, "interpretation matches the expected trace-set shapes")


def test_criterion_03_fusion_golden():
    spec = parse_spec("read x : ints write { eps, x_C } write { eps, x_C }")
    rng = random.Random(3)
    with time_budget(1.0):
        for _ in range(20):
            v = rng.randint(-10, 10)
            gt = interpret(spec, [v])
            assert gt == GeneralizedTrace((In(v), ows((), (v,), (v, v))))
            if v != 0:
                assert len(concretize(gt)) == 3
    report_pass(3, "adjacent outputs fuse into one word set")


def test_criterion_04_equivalence_property():
    rng = random.Random(40400)
    checked = 0
    skipped = 0
    with time_budget(30.0):
        while checked < 500:
            spec = random_spec(rng, depth=4, max_vars=3)
            base = sample_generalized_trace(
                spec, policy=SamplingPolicy(seed=rng.getrandbits(32))
            )
            trace = concretization_as_trace(rng, base)
            if rng.random() < 0.8:
                trace = mutate_trace(rng, trace, rounds=rng.randint(1, 2))
            try:
                gt = interpret(spec, trace.inputs())
            except (InputRejectedError, InputsExhaustedError,
                    SurplusInputsError, UnboundCurrentError):
                skipped += 1
                continue
            accepted = oracle.accept(spec, trace)
            covered = covers(gt, normalize(trace)) == Covered()
            assert accepted == covered, (
                f"disagreement: accept={accepted} covers={covered}\n"
                f"spec:\n{render_spec(spec)}\ntrace: {render_trace(trace)}"
            )
            checked += 1
    report_pass(
        4,
        f"backtracking acceptance and interpret-then-cover agree on {checked} pairs "
        f"({skipped} skipped)",
    )


def test_criterion_05_covering_oracle():
    rng = random.Random(50500)
    traces_checked = 0
    with time_budget(30.0):
        while traces_checked < 200:
            gt = random_generalized_trace(rng, max_concretizations=64)
            runs = concretize(gt, bound=64)
            for run in runs:
                assert covers(gt, run) == Covered()
            base = concretization_as_trace(rng, gt)
            for _ in range(5):
                mutated = normalize(mutate_trace(rng, base, rounds=rng.randint(1, 2)))
                brute_force = mutated in runs
                assert (covers(gt, mutated) == Covered()) == brute_force
            traces_checked += 1
    report_pass(
        5, f"covering agrees with brute-force enumeration on {traces_checked} traces"
    )


ALIGNMENT_BLOCK = """\
*** Failed! Falsifiable:
Input sequence: ?7 ?2 ?9 ?1 ?-5 ?1 ?7 ?1
Expected run (generalized): ?7 ?2 ?9 ?1 ?-5 ?1 ?7 ?1 !{16} stop
Actual run: ?7 ?2 ?9 ?1 ?-5 ?1 ?7 !15 stop
Error:
  AlignmentMismatch:
    Expected: ?1
    Got: !15"""

OUTPUT_BLOCK = """\
*** Failed! Falsifiable:
Input sequence: ?3 ?-2 ?0 ?6
Expected run (generalized): ?3 ?-2 ?0 ?6 !{4} stop
Actual run: ?3 ?-2 ?0 ?6 !-2 stop
Error:
  OutputMismatch:
    the value -2 is not covered by {4}"""


def test_criterion_06_feedback_reproduction(sum_spec_plain):
    with time_budget(30.0):
        for seed in range(50):
            cfg = TestConfig(policy=SamplingPolicy(seed=seed))
            report = run_test_suite(
                sum_spec_plain, programs.sum_reads_one_less, cfg
            )
            assert report.verdict is Verdict.FALSIFIED, f"seed {seed}"
            assert isinstance(report.counterexample.error, AlignmentMismatch), (
                f"seed {seed}: {report.counterexample}"
            )
            report = run_test_suite(sum_spec_plain, programs.sum_drops_last, cfg)
            assert report.verdict is Verdict.FALSIFIED, f"seed {seed}"
            assert isinstance(report.counterexample.error, OutputMismatch), (
                f"seed {seed}: {report.counterexample}"
            )

        # fixed counterexample data must render to the exact feedback blocks
        inputs = (7, 2, 9, 1, -5, 1, 7, 1)
        expected = GeneralizedTrace(tuple(In(v) for v in inputs) + (ows((16,)),))
        actual = parse_trace("?7 ?2 ?9 ?1 ?-5 ?1 ?7 !15 stop")
        ce = Counterexample(
            inputs, expected, actual,
            covers(expected, normalize(actual)), ExitKind.CLEAN_HALT,
        )
        rendered = format_feedback(TestReport(Verdict.FALSIFIED, 1, 0, ce))
        assert rendered == ALIGNMENT_BLOCK

        inputs = (3, -2, 0, 6)
        expected = GeneralizedTrace(tuple(In(v) for v in inputs) + (ows((4,)),))
        actual = parse_trace("?3 ?-2 ?0 ?6 !-2 stop")
        ce = Counterexample(
            inputs, expected, actual,
            covers(expected, normalize(actual)), ExitKind.CLEAN_HALT,
        )
        rendered = format_feedback(TestReport(Verdict.FALSIFIED, 1, 0, ce))
        assert rendered == OUTPUT_BLOCK
    report_pass(6, "both fault classes diagnosed on 50 seeds; blocks byte-exact")


def test_criterion_07_clean_pass(sum_spec):
    with time_budget(10.0):
        for seed in range(10):
            cfg = TestConfig(num_tests=100, policy=SamplingPolicy(seed=seed))
            report = run_test_suite(sum_spec, programs.sum_program, cfg)
            assert report.verdict is Verdict.ALL_PASSED
            assert report.tests_run == 100
            assert format_feedback(report) == "+++ OK, passed 100 tests."
    report_pass(7, "correct program passes 100 tests on 10 seeds")


def test_criterion_08_sampling_policy(sum_spec):
    first_inputs = set()
    with time_budget(10.0):
        for seed in range(1000):
            gt = sample_generalized_trace(sum_spec, policy=SamplingPolicy(seed=seed))
            inputs = gt.inputs()
            n, summands = inputs[0], inputs[1:]
            assert 0 <= n <= 10
            assert len(summands) == n
            assert all(-10 <= v <= 10 for v in summands)
            first_inputs.add(n)
    assert first_inputs == set(range(11))
    report_pass(8, "1000 samples respect the ranges; all 11 first inputs seen")


def test_criterion_09_generation_stuck():
    with time_budget(10.0):
        limits = GenerationLimits(max_loop_iterations=1000)
        for seed in range(5):
            with pytest.raises(GenerationFailureError):
                sample_generalized_trace(
                    STUCK_SPEC, policy=SamplingPolicy(seed=seed), limits=limits
                )
        for seed in range(5):
            cfg = TestConfig(policy=SamplingPolicy(seed=seed), limits=limits)
            report = run_test_suite(STUCK_SPEC, programs.sum_program, cfg)
            assert report.verdict is Verdict.GENERATION_STUCK
            assert report.counterexample is None
    report_pass(9, "narrow exit condition reports GenerationStuck, not a failure")


def test_criterion_10_exit_discard():
    from iospec import Apply, Branch, EMPTY, Exit, IntConst, Spec, TillExit, Trace, WriteOutput
    from iospec import AllVar, Integers, ReadInput

    always = Apply("==", (IntConst(0), IntConst(0)))
    with time_budget(1.0):
        # (a) exit via two satisfied branches discards the same round's write
        fixture_a = Spec((
            TillExit(Spec((
                Branch(always, EMPTY, Spec((Branch(always, EMPTY, Spec((Exit(),))),))),
                WriteOutput((IntConst(1),)),
            ))),
        ))
        assert accept(fixture_a, Trace(())) is True
        assert accept(fixture_a, parse_trace("!1 stop")) is False
        assert render_trace(interpret(fixture_a, [])) == "stop"

        # (b) the trailing write runs in staying rounds, not in the exit round
        len_x = Apply("len", (AllVar("x"),))
        fixture_b = Spec((
            TillExit(Spec((
                Branch(
                    Apply(">=", (len_x, IntConst(1))),
                    Spec((ReadInput("x", Integers()),)),
                    Spec((Branch(
                        Apply(">=", (len_x, IntConst(2))),
                        Spec((ReadInput("x", Integers()),)),
                        Spec((Exit(),)),
                    ),)),
                ),
                WriteOutput((IntConst(7),)),
            ))),
            WriteOutput((IntConst(9),)),
        ))
        assert render_trace(interpret(fixture_b, [4, -2])) == "?4 !{7} ?-2 !{<7 9>} stop"
        assert accept(fixture_b, parse_trace("?4 !7 ?-2 !7 !9 stop")) is True
        assert accept(fixture_b, parse_trace("?4 !7 ?-2 !9 stop")) is False

        # (c) a direct exit discards everything queued after it
        fixture_c = Spec((
            TillExit(Spec((Exit(), WriteOutput((IntConst(5),))))),
            WriteOutput((IntConst(3),)),
        ))
        assert render_trace(interpret(fixture_c, [])) == "!{3} stop"
        assert accept(fixture_c, parse_trace("!3 stop")) is True
        assert accept(fixture_c, parse_trace("!5 !3 stop")) is False
    report_pass(10, "exit discards trailing actions exactly as required")


def test_criterion_11_round_trips():
    from iospec import parse_generalized_trace

    rng = random.Random(111)
    with time_budget(10.0):
        for _ in range(500):
            spec = random_spec(rng)
            assert parse_spec(render_spec(spec)) == spec
        for _ in range(500):
            gt = random_generalized_trace(rng)
            assert parse_generalized_trace(render_trace(gt)) == gt
            trace = concretization_as_trace(rng, gt)
            assert parse_trace(render_trace(trace)) == trace
    report_pass(11, "parser and printer are inverse on 500 specs and traces")


def test_criterion_12_subprocess_smoke(sum_spec):
    executable, script = fixture_command("sum_prog.py")
    cfg = SubprocessConfig(executable, (script,), per_run_timeout_ms=5000,
                           quiescence_window_ms=40)
    with time_budget(60.0):
        for seed in range(25):
            gt = sample_generalized_trace(sum_spec, policy=SamplingPolicy(seed=seed))
            outcome = run_subprocess(cfg, gt.inputs())
            assert outcome.exit_kind is ExitKind.CLEAN_HALT
            assert covers(gt, normalize(outcome.trace)) == Covered(), (
                f"seed {seed}: {render_trace(outcome.trace)}"
            )

        sleeper_exe, sleeper_script = fixture_command("sleeper.py")
        sleepy = SubprocessConfig(sleeper_exe, (sleeper_script,),
                                  per_run_timeout_ms=700,
                                  quiescence_window_ms=40)
        outcome = run_subprocess(sleepy, [])
        assert outcome.exit_kind is ExitKind.TIMED_OUT
    report_pass(12, "external sum program covered on 25 runs; timeout contained")
