import os
import random
import signal
import sys
import time
from pathlib import Path

import pytest

from iospec import (
    ExitKind,
    In,
    Out,
    Read,
    SamplingPolicy,
    SpawnError,
    SubprocessConfig,
    Trace,
    Write,
    parse_trace,
    render_trace,
    run_scripted,
    run_subprocess,
    sample_generalized_trace,
)
from iospec import runner

from conftest import FIXTURES_DIR, fixture_command
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

    def test_consumed_inputs_counts_the_trace_inputs(self):
        def bad_effect():
            yield Read()
            yield "print"

        for program, inputs, kind in [
            (programs.sum_program, [2, 5, 3], ExitKind.CLEAN_HALT),
            (programs.crasher, [1], ExitKind.CRASHED),
            (programs.sum_program, [2, 5], ExitKind.PROTOCOL_ERROR),
            (bad_effect, [4, 6], ExitKind.PROTOCOL_ERROR),
        ]:
            outcome = run_scripted(program, inputs)
            assert outcome.exit_kind is kind
            assert outcome.consumed_inputs == len(outcome.trace.inputs()) > 0

    @pytest.mark.parametrize("ending, inputs, kind, detail", [
        ("crash", [1], ExitKind.CRASHED, "RuntimeError('boom')"),
        ("underflow", [1], ExitKind.PROTOCOL_ERROR, "InputUnderflow: program wants more input"),
        ("bad effect", [1], ExitKind.PROTOCOL_ERROR, "BadEffect: yielded 'print'"),
        ("halt", [1, 7, 8], ExitKind.CLEAN_HALT, ""),
    ])
    def test_output_cut_short_keeps_its_last_word(self, ending, inputs, kind, detail):
        def program():
            yield Write(0)
            x = yield Read()
            yield Write(x)
            yield Write(x + 1)
            if ending == "crash":
                raise RuntimeError("boom")
            if ending == "underflow":
                yield Read()
            if ending == "bad effect":
                yield "print"

        outcome = run_scripted(program, inputs)
        assert (outcome.exit_kind, outcome.detail) == (kind, detail)
        assert outcome.trace == Trace((Out(0), In(1), Out(1), Out(2)))
        assert outcome.trace.gaps == ((0,), (1, 2))
        assert render_trace(outcome.trace) == "!0 ?1 !1 !2 stop"
        assert outcome.consumed_inputs == 1

    def test_deterministic(self):
        a = run_scripted(programs.sum_with_progress, [3, 1, 2, 3])
        b = run_scripted(programs.sum_with_progress, [3, 1, 2, 3])
        assert a == b


class TestSubprocessConfig:
    def test_timeout_and_window_must_each_be_positive(self):
        for timeout, window in [(0, 50), (-1, 50), (5000, 0), (5000, -1)]:
            with pytest.raises(ValueError):
                SubprocessConfig("prog", per_run_timeout_ms=timeout, quiescence_window_ms=window)
        # a timeout within the default window is fine: the window applies
        # only where /proc cannot tell
        assert SubprocessConfig("prog", per_run_timeout_ms=40).quiescence_window_ms == 50

    def test_spawn_error(self):
        cfg = SubprocessConfig("/nonexistent/never-here", **FAST)
        with pytest.raises(SpawnError):
            run_subprocess(cfg, [1])


def _cfg(name: str, **kwargs) -> SubprocessConfig:
    executable, script = fixture_command(name)
    options = {**FAST, **kwargs}
    return SubprocessConfig(executable, (script,), **options)


def _default_cfg(name: str) -> SubprocessConfig:
    executable, script = fixture_command(name)
    return SubprocessConfig(executable, (script,))


class TestRunSubprocess:
    @pytest.mark.parametrize("name, options, inputs, trace_inputs, gaps, rendered, kind, detail", [
        ("sum_prog.py", {}, [2, 5, 3], (2, 5, 3), ((), (), (), (8,)), "?2 ?5 ?3 !8 stop",
         ExitKind.CLEAN_HALT, ""),
        ("quit_now.py", {}, [1], (), ((),), "stop", ExitKind.CLEAN_HALT, ""),
        ("exit_code_3.py", {}, [6], (6,), ((), (6,)), "?6 !6 stop",
         ExitKind.CRASHED, "exit code 3"),
        ("sum_prog.py", {}, [3, 1], (3, 1), ((), (), ()), "?3 ?1 stop",
         ExitKind.PROTOCOL_ERROR, "InputUnderflow: program wants more input"),
        ("chatty.py", {}, [1], (1,), ((), ()), "?1 stop",
         ExitKind.PROTOCOL_ERROR, "UnparsableOutput: 'thinking...'"),
        ("sleeper.py", {"per_run_timeout_ms": 600}, [], (), ((1,),), "!1 stop",
         ExitKind.TIMED_OUT, "per-run timeout hit"),
        ("print_forever.py", {}, [], (), None, None,
         ExitKind.PROTOCOL_ERROR, f"OutputOverflow: more than {runner.MAX_OUTPUT_LINES} lines"),
    ], ids=["halt", "quit", "crash", "underflow", "unparsable", "timeout", "overflow"])
    def test_every_ending_records_its_gaps(
        self, name, options, inputs, trace_inputs, gaps, rendered, kind, detail,
    ):
        outcome = run_subprocess(_cfg(name, **options), inputs)
        assert (outcome.exit_kind, outcome.detail) == (kind, detail)
        if gaps is None:  # endless output, cut at the line cap
            assert outcome.trace.input_values == () and len(outcome.trace.gaps) == 1
            assert len(outcome.trace.gaps[0]) <= runner.MAX_OUTPUT_LINES
            return
        assert outcome.trace == Trace._of(trace_inputs, gaps)
        assert render_trace(outcome.trace) == rendered
        assert outcome.consumed_inputs == len(trace_inputs)

    def test_stdout_closed_program_is_waited_for(self, monkeypatch):
        # not killed when stdout closes: a kill would read as a crash
        pump = runner._Run.pump
        waits_after_eof = []

        def logged_pump(run, timeout):
            if run.eof:
                waits_after_eof.append(timeout)
            return pump(run, timeout)

        monkeypatch.setattr(runner._Run, "pump", logged_pump)
        code = "import os, time; os.close(1); time.sleep(0.3)"
        start = time.monotonic()
        outcome = run_subprocess(SubprocessConfig(sys.executable, ("-c", code), **FAST), [1])
        assert time.monotonic() - start >= 0.3
        assert outcome.exit_kind is ExitKind.CLEAN_HALT
        assert outcome.trace == parse_trace("stop")
        # the exit is probed at once, not after the back-off the turn built
        assert waits_after_eof[0] == runner._PROBE_MIN_S

    def test_stdout_closed_program_reading_on_times_out(self):
        code = "import os, sys; os.close(1); sys.stdin.readline(); sys.stdin.readline()"
        cfg = SubprocessConfig(sys.executable, ("-c", code), per_run_timeout_ms=600)
        outcome = run_subprocess(cfg, [1])
        assert outcome.exit_kind is ExitKind.TIMED_OUT
        assert outcome.trace == parse_trace("stop")

    @pytest.mark.parametrize("line", ["1_000", "\u0667"])
    def test_only_ascii_decimal_integers_parse(self, line):
        # int() itself takes both `1_000` and the Arabic-Indic digit 7
        cfg = SubprocessConfig(sys.executable, ("-X", "utf8", "-c", f"print({line!r})"), **FAST)
        outcome = run_subprocess(cfg, [])
        assert outcome.exit_kind is ExitKind.PROTOCOL_ERROR
        assert "UnparsableOutput" in outcome.detail
        assert outcome.trace.steps == ()

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
        # behavior; their traces and exits must agree on sampled inputs
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
                assert actual.trace == expected.trace, (
                    f"seed {seed}: {render_trace(actual.trace)} "
                    f"!= {render_trace(expected.trace)}"
                )
                assert actual.exit_kind is expected.exit_kind


class TestTurnTaking:
    """Each turn ends when the program waits for input, at default timings."""

    @pytest.mark.parametrize("sleep_in", [(), ("select",)])
    def test_slow_answers_attributed_to_their_input(self, sleep_in):
        executable, script = fixture_command("slow_echo.py")
        cfg = SubprocessConfig(executable, (script, *sleep_in))
        outcome = run_subprocess(cfg, [3, 1, 2, 3])
        assert render_trace(outcome.trace) == "?3 !3 ?1 !2 ?2 !1 ?3 !6 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT

    def test_output_written_during_probe_is_taken_first(self, monkeypatch):
        # a slow probe lets the program print and block on stdin after the
        # runner last looked at stdout; that output must not lag an input
        probe = runner._tree_waits

        def slow_probe(pid, calls):
            time.sleep(0.02)
            return probe(pid, calls)

        monkeypatch.setattr(runner, "_tree_waits", slow_probe)
        outcome = run_subprocess(_default_cfg("slow_echo.py"), [3, 1, 2, 3])
        assert render_trace(outcome.trace) == "?3 !3 ?1 !2 ?2 !1 ?3 !6 stop"

    def test_grandchild_behind_wrapper_shell(self):
        cfg = SubprocessConfig("sh", (str(FIXTURES_DIR / "sum_wrapper.sh"), sys.executable))
        outcome = run_subprocess(cfg, [3, 1, 2, 3])
        assert render_trace(outcome.trace) == "?3 !3 ?1 !2 ?2 !1 ?3 !6 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT

    @pytest.mark.parametrize("idle", [(), ("idle",)])
    def test_select_before_read(self, idle):
        executable, script = fixture_command("select_sum.py")
        outcome = run_subprocess(SubprocessConfig(executable, (script, *idle)), [3, 1, 2, 3])
        assert render_trace(outcome.trace) == "?3 !3 ?1 !2 ?2 !1 ?3 !6 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT

    def test_waiting_after_last_input_is_underflow(self):
        start = time.monotonic()
        outcome = run_subprocess(_default_cfg("sum_prog.py"), [3, 1])
        assert time.monotonic() - start < 2.0
        assert outcome.exit_kind is ExitKind.PROTOCOL_ERROR
        assert "InputUnderflow" in outcome.detail
        assert render_trace(outcome.trace) == "?3 ?1 stop"

    def test_endless_output_is_cut(self):
        start = time.monotonic()
        outcome = run_subprocess(_default_cfg("print_forever.py"), [])
        assert time.monotonic() - start < 2.0
        assert outcome.exit_kind is ExitKind.PROTOCOL_ERROR
        assert "OutputOverflow" in outcome.detail
        assert len(outcome.trace.steps) <= runner.MAX_OUTPUT_LINES

    def test_quiescence_fallback_without_proc(self, monkeypatch):
        probes = []

        def unknown(pid, calls):
            probes.append(pid)
            return None

        monkeypatch.setattr(runner, "_tree_waits", unknown)
        outcome = run_subprocess(_default_cfg("sum_prog.py"), [2, 5, 3])
        assert render_trace(outcome.trace) == "?2 ?5 ?3 !8 stop"
        assert outcome.exit_kind is ExitKind.CLEAN_HALT
        assert len(probes) == 1
        # a program silent after its last input may still be computing, so
        # one that waits for more input runs until the timeout
        start = time.monotonic()
        outcome = run_subprocess(_cfg("sum_prog.py", per_run_timeout_ms=600), [3, 1])
        assert time.monotonic() - start >= 0.6
        assert render_trace(outcome.trace) == "?3 ?1 stop"
        assert outcome.exit_kind is ExitKind.TIMED_OUT
        assert outcome.detail == "per-run timeout hit"

    def test_window_longer_than_the_timeout(self, monkeypatch):
        cfg = _cfg("sum_prog.py", per_run_timeout_ms=3000, quiescence_window_ms=60000)
        outcome = run_subprocess(cfg, [2, 5, 3])
        assert outcome.exit_kind is ExitKind.CLEAN_HALT
        # where /proc cannot tell, the window outlasts the run's time
        monkeypatch.setattr(runner, "_tree_waits", lambda pid, calls: None)
        cfg = _cfg("sum_prog.py", per_run_timeout_ms=300, quiescence_window_ms=60000)
        outcome = run_subprocess(cfg, [2, 5, 3])
        assert outcome.exit_kind is ExitKind.TIMED_OUT
        assert outcome.consumed_inputs == 0


def _ended_within(pid: int, seconds: float) -> bool:
    """Whether the process is gone or a zombie within `seconds`."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


class TestContainment:
    """Nothing the program starts outlives its run."""

    @pytest.mark.parametrize("mode, kind", [
        ("wait", ExitKind.TIMED_OUT),
        ("exit", ExitKind.CLEAN_HALT),
    ])
    def test_grandchild_is_killed(self, tmp_path, mode, kind):
        pid_file = tmp_path / "grandchild.pid"
        script = str(FIXTURES_DIR / "one_grandchild.sh")
        cfg = SubprocessConfig("sh", (script, str(pid_file), mode), per_run_timeout_ms=500)
        outcome = run_subprocess(cfg, [])
        pid = int(pid_file.read_text())
        try:
            assert outcome.exit_kind is kind
            assert _ended_within(pid, 1.0)
        finally:
            if not _ended_within(pid, 0):
                os.kill(pid, signal.SIGKILL)
