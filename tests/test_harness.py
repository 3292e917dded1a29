import random
import time

import pytest

from iospec import (
    AlignmentMismatch,
    Counterexample,
    Covered,
    ExitKind,
    FeedbackMode,
    GeneralizedTrace,
    GenerationFailureError,
    GenerationLimits,
    In,
    OutputMismatch,
    OutputWordSet,
    Read,
    ReportFormat,
    SamplingPolicy,
    TestConfig,
    TestReport,
    Verdict,
    Write,
    covers,
    format_feedback,
    interpret,
    normalize,
    parse_spec,
    parse_trace,
    run_test_suite,
    sample_generalized_trace,
)
from iospec.harness import ConfigError

from conftest import STUCK_SPEC
import programs


def ows(*words):
    return OutputWordSet(frozenset(words))


def make_report(counterexample, tests_run=1, seed=0):
    return TestReport(Verdict.FALSIFIED, tests_run, seed, counterexample)


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


def alignment_counterexample():
    inputs = (7, 2, 9, 1, -5, 1, 7, 1)
    expected = GeneralizedTrace(tuple(In(v) for v in inputs) + (ows((16,)),))
    actual = parse_trace("?7 ?2 ?9 ?1 ?-5 ?1 ?7 !15 stop")
    error = covers(expected, normalize(actual))
    assert isinstance(error, AlignmentMismatch)
    return Counterexample(inputs, expected, actual, error, ExitKind.CLEAN_HALT)


def output_counterexample():
    inputs = (3, -2, 0, 6)
    expected = GeneralizedTrace(tuple(In(v) for v in inputs) + (ows((4,)),))
    actual = parse_trace("?3 ?-2 ?0 ?6 !-2 stop")
    error = covers(expected, normalize(actual))
    assert isinstance(error, OutputMismatch)
    return Counterexample(inputs, expected, actual, error, ExitKind.CLEAN_HALT)


class TestFormatFeedback:
    def test_all_passed(self):
        report = TestReport(Verdict.ALL_PASSED, 100, 0)
        assert format_feedback(report) == "+++ OK, passed 100 tests."

    def test_one_round_passed_is_singular(self):
        report = TestReport(Verdict.ALL_PASSED, 1, 0)
        assert format_feedback(report) == "+++ OK, passed 1 test."
        machine = format_feedback(report, ReportFormat.MACHINE_LINES)
        assert machine == "verdict=AllPassed\ntests=1\nseed=0"

    def test_alignment_block_exact(self):
        report = make_report(alignment_counterexample())
        assert format_feedback(report) == ALIGNMENT_BLOCK

    def test_output_block_exact(self):
        report = make_report(output_counterexample())
        assert format_feedback(report) == OUTPUT_BLOCK

    def test_example_mode_shows_one_run(self):
        report = make_report(alignment_counterexample())
        text = format_feedback(report, feedback_mode=FeedbackMode.EXAMPLE)
        assert "Expected run (example): ?7 ?2 ?9 ?1 ?-5 ?1 ?7 ?1 !16 stop" in text
        assert "generalized" not in text

    def test_machine_lines(self):
        report = make_report(alignment_counterexample(), tests_run=3, seed=99)
        lines = format_feedback(report, ReportFormat.MACHINE_LINES).splitlines()
        assert "verdict=Falsified" in lines
        assert "tests=3" in lines
        assert "seed=99" in lines
        assert "inputs=7,2,9,1,-5,1,7,1" in lines
        assert "error=AlignmentMismatch" in lines
        assert "expected_step=?1" in lines
        assert "got_step=!15" in lines

    def test_machine_lines_all_passed(self):
        report = TestReport(Verdict.ALL_PASSED, 100, 7)
        assert format_feedback(report, ReportFormat.MACHINE_LINES) == (
            "verdict=AllPassed\ntests=100\nseed=7"
        )

    def test_wide_output_set_stays_linear(self):
        def falsified_feedback(k):
            spec = parse_spec("read x : ints\n" + "write { eps, x_C, x_C + 1 }\n" * k)
            expected = interpret(spec, [3])
            actual = parse_trace("?3 !3 !9 stop")
            error = covers(expected, normalize(actual))
            assert isinstance(error, OutputMismatch)
            report = make_report(
                Counterexample((3,), expected, actual, error, ExitKind.CLEAN_HALT)
            )
            return [
                format_feedback(report),
                format_feedback(report, feedback_mode=FeedbackMode.EXAMPLE),
                format_feedback(report, ReportFormat.MACHINE_LINES),
            ]

        start = time.perf_counter()
        human, example, machine = falsified_feedback(20)
        assert time.perf_counter() - start < 1.0
        groups = "{eps, 3, 4}" * 20
        assert f"Expected run (generalized): ?3 !{groups} stop" in human
        assert f"the value 3 9 is not covered by {groups}" in human
        assert "Expected run (example): ?3 !3 stop" in example
        assert f"allowed={groups}" in machine.splitlines()
        # twice the writes, at most twice the text: linear, not exponential
        for short, long in zip((human, example, machine), falsified_feedback(40)):
            assert len(long) <= 2 * len(short)

    def test_abnormal_exit_block(self):
        ce = Counterexample(
            (1,),
            GeneralizedTrace((In(1),)),
            parse_trace("?1 stop"),
            Covered(),
            ExitKind.CRASHED,
            run_detail="RuntimeError('boom')",
        )
        text = format_feedback(make_report(ce))
        assert "AbnormalExit: Crashed" in text
        assert "boom" in text
        lines = format_feedback(make_report(ce), ReportFormat.MACHINE_LINES).splitlines()
        assert "error=AbnormalExit:Crashed" in lines
        assert "exit_kind=Crashed" in lines
        assert "run_detail=RuntimeError('boom')" in lines

    def test_abnormal_exit_shown_beside_a_mismatch(self):
        # a program printing `1_000` for `write { 1000 }`: the run stops at
        # the unparsable line, so its trace is also uncovered
        expected = GeneralizedTrace((ows((1000,)),))
        actual = parse_trace("stop")
        error = covers(expected, normalize(actual))
        assert isinstance(error, AlignmentMismatch)
        ce = Counterexample(
            (), expected, actual, error, ExitKind.PROTOCOL_ERROR,
            run_detail="UnparsableOutput: '1_000'",
        )
        text = format_feedback(make_report(ce))
        assert text.endswith(
            "  AlignmentMismatch:\n"
            "    Expected: !{1000}\n"
            "    Got: stop\n"
            "  AbnormalExit: ProtocolError: UnparsableOutput: '1_000'"
        )
        lines = format_feedback(make_report(ce), ReportFormat.MACHINE_LINES).splitlines()
        assert lines[-5:] == [
            "error=AlignmentMismatch",
            "expected_step=!{1000}",
            "got_step=stop",
            "exit_kind=ProtocolError",
            "run_detail=UnparsableOutput: '1_000'",
        ]

    def test_clean_run_adds_only_machine_keys(self):
        report = make_report(output_counterexample())
        assert format_feedback(report) == OUTPUT_BLOCK
        lines = format_feedback(report, ReportFormat.MACHINE_LINES).splitlines()
        assert lines[-2:] == ["exit_kind=CleanHalt", "run_detail="]


class TestRunTestSuite:
    def test_correct_program_passes(self, sum_spec):
        report = run_test_suite(sum_spec, programs.sum_program, TestConfig())
        assert report.verdict is Verdict.ALL_PASSED
        assert report.tests_run == 100
        assert format_feedback(report) == "+++ OK, passed 100 tests."

    def test_progress_variant_passes_rich_spec(self, sum_spec):
        report = run_test_suite(sum_spec, programs.sum_with_progress, TestConfig())
        assert report.verdict is Verdict.ALL_PASSED

    def test_progress_variant_fails_plain_spec(self, sum_spec_plain):
        report = run_test_suite(
            sum_spec_plain, programs.sum_with_progress, TestConfig()
        )
        assert report.verdict is Verdict.FALSIFIED

    def test_reads_one_less_gives_alignment_mismatch(self, sum_spec_plain):
        report = run_test_suite(
            sum_spec_plain, programs.sum_reads_one_less, TestConfig()
        )
        assert report.verdict is Verdict.FALSIFIED
        assert isinstance(report.counterexample.error, AlignmentMismatch)

    def test_drops_last_gives_output_mismatch(self, sum_spec_plain):
        report = run_test_suite(sum_spec_plain, programs.sum_drops_last, TestConfig())
        assert report.verdict is Verdict.FALSIFIED
        assert isinstance(report.counterexample.error, OutputMismatch)

    def test_negative_seed_has_its_own_rounds(self, sum_spec_plain):
        def counterexamples(seeds):
            return [run_test_suite(
                sum_spec_plain, programs.sum_drops_last,
                TestConfig(policy=SamplingPolicy(seed=s)),
            ).counterexample.inputs for s in seeds]

        assert counterexamples(range(-1, -6, -1)) != counterexamples(range(1, 6))

    def test_crash_is_falsified(self):
        spec = parse_spec("read x : ints")
        report = run_test_suite(spec, programs.crasher, TestConfig())
        assert report.verdict is Verdict.FALSIFIED
        assert report.counterexample.exit_kind is ExitKind.CRASHED
        # the observable trace was fine; only the exit was abnormal
        assert report.counterexample.error == Covered()

    def test_generation_stuck(self):
        report = run_test_suite(
            STUCK_SPEC,
            programs.sum_program,
            TestConfig(limits=GenerationLimits(max_loop_iterations=1000)),
        )
        assert report.verdict is Verdict.GENERATION_STUCK
        assert report.tests_run == 0
        assert "attempts" in report.detail

    def test_deterministic_for_scripted_targets(self, sum_spec_plain):
        cfg = TestConfig(policy=SamplingPolicy(seed=5))
        a = run_test_suite(sum_spec_plain, programs.sum_reads_one_less, cfg)
        b = run_test_suite(sum_spec_plain, programs.sum_reads_one_less, cfg)
        assert a == b

    def test_report_seed_matches_config(self, sum_spec):
        cfg = TestConfig(num_tests=3, policy=SamplingPolicy(seed=123))
        report = run_test_suite(sum_spec, programs.sum_program, cfg)
        assert report.seed == 123

    def test_report_consistency(self, sum_spec_plain):
        # re-running the reported inputs reproduces the reported error
        cfg = TestConfig(policy=SamplingPolicy(seed=8))
        report = run_test_suite(sum_spec_plain, programs.sum_reads_one_less, cfg)
        ce = report.counterexample
        gt = interpret(sum_spec_plain, ce.inputs)
        assert gt == ce.expected
        assert covers(gt, normalize(ce.actual)) == ce.error

    def test_counterexample_inputs_within_ranges(self, sum_spec_plain):
        cfg = TestConfig(policy=SamplingPolicy(seed=21))
        report = run_test_suite(sum_spec_plain, programs.sum_drops_last, cfg)
        n, *summands = report.counterexample.inputs
        assert 0 <= n <= 10
        assert all(-10 <= v <= 10 for v in summands)

    @pytest.mark.parametrize("ranges, limits, verdicts", [
        ({}, GenerationLimits(), {Verdict.ALL_PASSED}),
        ({"integer_range": (-1000, 1000), "natural_range": (2, 5)}, GenerationLimits(),
         {Verdict.ALL_PASSED}),
        # a sample of 2 or more summands grows past 4 steps, so most
        # attempts fail and the next one draws a fresh seed
        ({}, GenerationLimits(max_trace_length=4),
         {Verdict.ALL_PASSED, Verdict.GENERATION_STUCK}),
    ])
    def test_rounds_feed_the_inputs_of_public_sampling(self, sum_spec, ranges, limits, verdicts):
        # Each attempt samples with the seed drawn next from
        # `Random(seed)`, through `sample_generalized_trace`: the replay
        # a benchmark or a user makes of a round rests on this.
        def replay(seed, cfg):
            rng = random.Random(seed)
            rounds = []
            for _ in range(cfg.num_tests):
                for _ in range(cfg.max_generation_attempts):
                    policy = SamplingPolicy(**ranges, seed=rng.getrandbits(64))
                    try:
                        gt = sample_generalized_trace(sum_spec, policy=policy, limits=limits)
                        break
                    except GenerationFailureError:
                        continue
                else:
                    return rounds, Verdict.GENERATION_STUCK
                rounds.append(gt.input_values)
            return rounds, Verdict.ALL_PASSED

        seen = set()
        for seed in range(50):
            recorded = []

            def recorder():
                n = yield Read()
                values = [n]
                for i in range(n):
                    yield Write(n - i)
                    values.append((yield Read()))
                recorded.append(tuple(values))
                yield Write(sum(values[1:]))

            cfg = TestConfig(num_tests=3, policy=SamplingPolicy(**ranges, seed=seed),
                             limits=limits)
            report = run_test_suite(sum_spec, recorder, cfg)
            assert (recorded, report.verdict) == replay(seed, cfg)
            seen.add(report.verdict)
        assert seen == verdicts

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TestConfig(num_tests=0)
        with pytest.raises(ConfigError):
            TestConfig(max_generation_attempts=0)

    @pytest.mark.parametrize("field", ["num_tests", "max_generation_attempts"])
    @pytest.mark.parametrize("count", [2.5, "5", None])
    def test_config_counts_must_be_ints(self, field, count):
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {count!r}$"):
            TestConfig(**{field: count})
        # a bool is an int, as GenerationLimits takes it
        assert getattr(TestConfig(**{field: True}), field) is True

    @pytest.mark.parametrize("field, value, kind", [
        ("policy", None, "SamplingPolicy"),
        ("policy", GenerationLimits(), "SamplingPolicy"),
        ("limits", (5, 5), "GenerationLimits"),
        ("limits", SamplingPolicy(), "GenerationLimits"),
    ])
    def test_config_policy_and_limits_must_have_their_types(self, field, value, kind):
        with pytest.raises(TypeError, match=f"^{field} must be a {kind}, got "):
            TestConfig(**{field: value})
