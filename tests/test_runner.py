import random

import pytest

from iospec import (
    ExitKind,
    OutputParseMode,
    SamplingPolicy,
    SpawnError,
    SubprocessConfig,
    normalize,
    parse_trace,
    render_trace,
    run_scripted,
    run_subprocess,
    sample_generalized_trace,
)

from conftest import fixture_command
import programs

FAST = dict(per_run_timeout_ms=5000, quiescence_window_ms=40)


class TestRunScripted:
    def test_sum_program_golden(self):
        outcome = run_scripted(programs.sum_program, [2, 5, 3])
        assert render_trace(outcome.trace) == "?2 ?5 ?3 !8 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT
        assert outcome.consumed_inputs == 3

    def test_off_by_one_leaves_surplus_input(self):
        outcome = run_scripted(programs.sum_reads_one_less, [7, 2, 9, 1, -5, 1, 7, 1])
        assert render_trace(outcome.trace) == "?7 ?2 ?9 ?1 ?-5 ?1 ?7 !15 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT
        assert outcome.consumed_inputs == 7

    def test_immediate_halt(self):
        outcome = run_scripted(programs.halt_immediately, [])
        assert outcome.trace == parse_trace("stop")
        assert outcome.exit_kind is ExitKind.CLEAN_HALT

    def test_input_underflow(self):
        outcome = run_scripted(programs.sum_program, [2, 5])
        assert outcome.exit_kind is ExitKind.PROTOCOL_ERROR
        assert "InputUnderflow" in outcome.detail
        assert render_trace(outcome.trace) == "?2 ?5 stop"

    def test_crash_is_captured(self):
        outcome = run_scripted(programs.crasher, [1])
        assert outcome.exit_kind is ExitKind.CRASHED
        assert "boom" in outcome.detail
        assert outcome.consumed_inputs == 1

    def test_input_prefix_property(self):
        rng = random.Random(3)
        for _ in range(50):
            inputs = [rng.randint(0, 5)] + [rng.randint(-9, 9) for _ in range(5)]
            outcome = run_scripted(programs.sum_program, inputs)
            assert outcome.trace.inputs() == inputs[: outcome.consumed_inputs]

    def test_deterministic(self):
        a = run_scripted(programs.sum_with_progress, [3, 1, 2, 3])
        b = run_scripted(programs.sum_with_progress, [3, 1, 2, 3])
        assert a == b


class TestSubprocessConfig:
    def test_timeout_must_exceed_quiescence(self):
        with pytest.raises(ValueError):
            SubprocessConfig("prog", per_run_timeout_ms=50, quiescence_window_ms=50)

    def test_spawn_error(self):
        cfg = SubprocessConfig("/nonexistent/never-here", **FAST)
        with pytest.raises(SpawnError):
            run_subprocess(cfg, [1])


def _cfg(name: str, **kwargs) -> SubprocessConfig:
    executable, script = fixture_command(name)
    options = {**FAST, **kwargs}
    return SubprocessConfig(executable, (script,), **options)


class TestRunSubprocess:
    def test_sum_binary_golden(self):
        outcome = run_subprocess(_cfg("sum_prog.py"), [2, 5, 3])
        assert render_trace(outcome.trace) == "?2 ?5 ?3 !8 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT
        assert outcome.consumed_inputs == 3

    def test_immediate_exit_consumes_nothing(self):
        # the quiescence window must cover interpreter startup so the exit
        # is seen before the first input would be written
        cfg = _cfg("quit_now.py", quiescence_window_ms=2000,
                   per_run_timeout_ms=10000)
        outcome = run_subprocess(cfg, [1])
        assert outcome.trace == parse_trace("stop")
        assert outcome.consumed_inputs == 0
        assert outcome.exit_kind is ExitKind.CLEAN_HALT

    def test_timeout_returns_partial_trace(self):
        outcome = run_subprocess(_cfg("sleeper.py", per_run_timeout_ms=600), [])
        assert outcome.exit_kind is ExitKind.TIMED_OUT
        assert render_trace(outcome.trace) == "!1 stop"

    def test_unparsable_output(self):
        outcome = run_subprocess(_cfg("chatty.py"), [1])
        assert outcome.exit_kind is ExitKind.PROTOCOL_ERROR
        assert "UnparsableOutput" in outcome.detail

    def test_blank_lines_skipped_when_asked(self):
        cfg = _cfg("blank_then_sum.py",
                   output_parse_mode=OutputParseMode.SKIP_BLANK)
        outcome = run_subprocess(cfg, [4, 5])
        assert render_trace(outcome.trace) == "?4 ?5 !9 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT

    def test_blank_lines_rejected_by_default(self):
        outcome = run_subprocess(_cfg("blank_then_sum.py"), [4, 5])
        assert outcome.exit_kind is ExitKind.PROTOCOL_ERROR

    def test_nonzero_exit_code_is_a_crash(self):
        outcome = run_subprocess(_cfg("exit_code_3.py"), [6])
        assert outcome.exit_kind is ExitKind.CRASHED
        assert outcome.exit_code == 3
        assert "went wrong" in outcome.stderr
        assert render_trace(outcome.trace) == "?6 !6 stop"

    def test_agrees_with_scripted_oracle(self, sum_spec):
        # the external program and the scripted program implement the same
        # behavior; their normalized traces must agree on sampled inputs
        pairs = [
            (programs.sum_program, _cfg("sum_prog.py")),
            (programs.sum_with_progress, _cfg("sum_progress_prog.py")),
        ]
        for seed in range(4):
            gt = sample_generalized_trace(sum_spec, policy=SamplingPolicy(seed=seed))
            inputs = gt.inputs()
            for scripted, cfg in pairs:
                expected = run_scripted(scripted, inputs)
                actual = run_subprocess(cfg, inputs)
                assert normalize(actual.trace) == normalize(expected.trace), (
                    f"seed {seed}: {render_trace(actual.trace)} "
                    f"!= {render_trace(expected.trace)}"
                )
