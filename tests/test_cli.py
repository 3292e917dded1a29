import subprocess
import sys
import time

import pytest

from iospec.cli import _join_ranges, build_arg_parser, main

from conftest import DATA_DIR, FIXTURES_DIR

SUM_SPEC_FILE = str(DATA_DIR / "sum.iospec")
PLAIN_SPEC_FILE = str(DATA_DIR / "sum_plain.iospec")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_runaway_spec(tmp_path, body: str = "write { 1 }") -> str:
    # the loop never exits, so every round fuses one more write into the
    # output set until the round limit stops it
    runaway = tmp_path / "runaway.iospec"
    runaway.write_text(
        "write { 1 }\n"
        f"loop {{ if 0 == 1 then {{ exit }} else {{ {body} }} }}\n"
    )
    return str(runaway)


def run_cli_timed(capsys, *argv):
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    return result, time.perf_counter() - start


class TestCheck:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check", SUM_SPEC_FILE)
        assert code == 0
        assert out.strip() == "ok"

    def test_violations_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.iospec"
        bad.write_text("write { x_C }\n")
        code, out, _ = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert "use-before-read" in out

    def test_syntax_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.iospec"
        bad.write_text("read read\n")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "no-such-file.iospec")
        assert code == 2

    def test_undecodable_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "latin1.iospec"
        bad.write_bytes(b"read x : ints\n# \xff\n")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ")

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        spec = tmp_path / "bom.iospec"
        spec.write_bytes(b"\xef\xbb\xbfread x : ints\nwrite { x_C }\n")
        code, out, err = run_cli(capsys, "check", str(spec))
        assert (code, out, err) == (0, "ok\n", "")


class TestInterpret:
    def test_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "interpret", SUM_SPEC_FILE, "--inputs", "0"
        )
        assert code == 0
        assert out.strip() == "?0 !{0} stop"

    def test_longer(self, capsys):
        code, out, _ = run_cli(
            capsys, "interpret", SUM_SPEC_FILE, "--inputs", "2,3,7"
        )
        assert code == 0
        assert out.strip() == "?2 !{eps, 2} ?3 !{eps, 1} ?7 !{10} stop"

    def test_bad_inputs_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "interpret", SUM_SPEC_FILE, "--inputs", "-1"
        )
        assert code == 1
        assert "outside the domain" in err

    def test_inputs_must_be_ascii_decimal_integers(self, capsys):
        # int() itself takes both `1_0` and the Arabic-Indic digit 7
        for inputs in ("1_0", "2,\u0667"):
            code, out, err = run_cli(capsys, "interpret", SUM_SPEC_FILE, "--inputs", inputs)
            assert code == 2
            assert out == ""
            assert "--inputs" in err

    def test_runaway_loop_exit_2(self, capsys, tmp_path):
        runaway = write_runaway_spec(tmp_path)
        code, out, err = run_cli(capsys, "interpret", runaway, "--inputs", "")
        assert code == 2
        assert out == ""
        assert "loop ran more than 1000 rounds" in err


    def test_runaway_skippable_loop_exit_2(self, capsys, tmp_path):
        # a thousand fused `write { eps, 1 }` sets stay a product of factors
        runaway = write_runaway_spec(tmp_path, "write { eps, 1 }")
        (code, out, err), elapsed = run_cli_timed(
            capsys, "interpret", runaway, "--inputs", ""
        )
        assert code == 2
        assert out == ""
        assert "loop ran more than 1000 rounds" in err
        assert elapsed < 1.0

    def test_too_deep_spec_exit_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.iospec"
        deep.write_text("read x : ints\nwrite { " + "(" * 150 + "x_C" + ")" * 150 + " }\n")
        code, out, err = run_cli(capsys, "interpret", str(deep), "--inputs", "1")
        assert code == 2
        assert out == ""
        assert "levels deep" in err


class TestSample:
    def test_generation_giving_up_exit_2(self, capsys, tmp_path):
        runaway = write_runaway_spec(tmp_path)
        code, out, err = run_cli(capsys, "sample", runaway)
        assert code == 2
        assert out == ""
        assert "loop ran more than 1000 rounds" in err

    def test_count_and_determinism(self, capsys):
        code, out1, _ = run_cli(
            capsys, "sample", SUM_SPEC_FILE, "--seed", "3", "--count", "4"
        )
        assert code == 0
        assert len(out1.strip().splitlines()) == 4
        code, out2, _ = run_cli(
            capsys, "sample", SUM_SPEC_FILE, "--seed", "3", "--count", "4"
        )
        assert out1 == out2

    def test_count_below_one_is_a_usage_error(self, capsys):
        for count in ("0", "-2", "x"):
            code, out, err = run_cli(capsys, "sample", SUM_SPEC_FILE, "--count", count)
            assert code == 2
            assert out == ""
            assert "--count" in err

    def test_samples_parse_back(self, capsys):
        from iospec import parse_generalized_trace

        code, out, _ = run_cli(
            capsys, "sample", SUM_SPEC_FILE, "--seed", "1", "--count", "10"
        )
        for line in out.strip().splitlines():
            parse_generalized_trace(line)


class TestAccept:
    def test_valid_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "accept", SUM_SPEC_FILE, "--trace", "?2 ?5 ?3 !8 stop"
        )
        assert code == 0
        assert out.strip() == "True"

    def test_invalid_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "accept", SUM_SPEC_FILE,
            "--trace", "?3 !4 ?-1 !2 ?7 !1 ?4 !10 stop",
        )
        assert code == 1
        assert out.strip() == "False"

    def test_malformed_trace_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "accept", SUM_SPEC_FILE, "--trace", "?2 huh"
        )
        assert code == 2
        # reported at its line and column, as a spec error is
        code, out, err = run_cli(
            capsys, "accept", SUM_SPEC_FILE, "--trace", "?1\n!1\n?5\n!x\nstop"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: 4:1: ")

    def test_byte_order_mark_is_skipped(self, capsys):
        code, out, _ = run_cli(
            capsys, "accept", SUM_SPEC_FILE, "--trace", "\ufeff?1 !1 ?5 !5 stop"
        )
        assert (code, out) == (0, "True\n")

    def test_runaway_loop_exit_2(self, capsys, tmp_path):
        # accept runs the whole spec on the trace's inputs, so the loop
        # runs away although the first output already mismatches
        runaway = tmp_path / "runaway.iospec"
        runaway.write_text(
            "write { 1 }\n"
            "loop { if 0 == 1 then { exit } else { write { 1 } } }\n"
        )
        code, out, err = run_cli(capsys, "accept", str(runaway), "--trace", "!2 stop")
        assert code == 2
        assert out == ""
        assert "loop ran more than 1000 rounds" in err


    def test_runaway_skippable_loop_exit_2(self, capsys, tmp_path):
        runaway = write_runaway_spec(tmp_path, "write { eps, 1 }")
        (code, out, err), elapsed = run_cli_timed(
            capsys, "accept", runaway, "--trace", "!2 stop"
        )
        assert code == 2
        assert out == ""
        assert "loop ran more than 1000 rounds" in err
        assert elapsed < 1.0


def sum_program_argv() -> list[str]:
    return [sys.executable, str(FIXTURES_DIR / "sum_prog.py")]


class TestTest:
    def test_passing_program(self, capsys):
        prog, script = sum_program_argv()
        code, out, _ = run_cli(
            capsys, "test", SUM_SPEC_FILE,
            "--program", prog, "--args", script,
            "--tests", "5", "--seed", "0", "--quiescence", "30",
        )
        assert code == 0
        assert out.strip() == "+++ OK, passed 5 tests."

    def test_failing_program_machine_format(self, capsys, tmp_path):
        buggy = tmp_path / "buggy.py"
        buggy.write_text(
            "import sys\n"
            "n = int(sys.stdin.readline())\n"
            "total = 0\n"
            "for _ in range(max(n - 1, 0)):\n"
            "    total += int(sys.stdin.readline())\n"
            "print(total, flush=True)\n"
        )
        prog = sys.executable
        code, out, _ = run_cli(
            capsys, "test", PLAIN_SPEC_FILE,
            "--program", prog, "--args", str(buggy),
            "--tests", "20", "--seed", "1", "--quiescence", "30",
            "--format", "machine",
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert "verdict=Falsified" in lines
        assert any(line.startswith("inputs=") for line in lines)
        assert "error=AlignmentMismatch" in lines

    def test_human_failure_block(self, capsys, tmp_path):
        buggy = tmp_path / "drops_last.py"
        buggy.write_text(
            "import sys\n"
            "n = int(sys.stdin.readline())\n"
            "xs = [int(sys.stdin.readline()) for _ in range(n)]\n"
            "print(sum(xs[:-1]), flush=True)\n"
        )
        code, out, _ = run_cli(
            capsys, "test", PLAIN_SPEC_FILE,
            "--program", sys.executable, "--args", str(buggy),
            "--tests", "30", "--seed", "2", "--quiescence", "30",
        )
        assert code == 1
        assert out.startswith("*** Failed! Falsifiable:")
        assert "OutputMismatch:" in out
        assert "is not covered by" in out

    def test_feedback_example_mode(self, capsys, tmp_path):
        buggy = tmp_path / "drops_last.py"
        buggy.write_text(
            "import sys\n"
            "n = int(sys.stdin.readline())\n"
            "xs = [int(sys.stdin.readline()) for _ in range(n)]\n"
            "print(sum(xs[:-1]), flush=True)\n"
        )
        code, out, _ = run_cli(
            capsys, "test", PLAIN_SPEC_FILE,
            "--program", sys.executable, "--args", str(buggy),
            "--tests", "30", "--seed", "2", "--quiescence", "30",
            "--feedback", "example",
        )
        assert code == 1
        assert "Expected run (example):" in out
        assert "generalized" not in out

    def test_generation_stuck_exit_2(self, capsys, tmp_path):
        stuck = tmp_path / "stuck.iospec"
        stuck.write_text(
            "loop { if sum(x_A) == 10000 then { exit } "
            "else { read x : ints } }\n"
        )
        prog, script = sum_program_argv()
        code, out, _ = run_cli(
            capsys, "test", str(stuck),
            "--program", prog, "--args", script, "--tests", "3",
        )
        assert code == 2
        assert "Gave up" in out

    def test_custom_ranges_reach_counterexample(self, capsys, tmp_path):
        # with a degenerate range every summand is 5, so dropping the last
        # summand shows up immediately for n >= 1
        buggy = tmp_path / "drops_last.py"
        buggy.write_text(
            "import sys\n"
            "n = int(sys.stdin.readline())\n"
            "xs = [int(sys.stdin.readline()) for _ in range(n)]\n"
            "print(sum(xs[:-1]), flush=True)\n"
        )
        code, out, _ = run_cli(
            capsys, "test", PLAIN_SPEC_FILE,
            "--program", sys.executable, "--args", str(buggy),
            "--tests", "30", "--seed", "4", "--quiescence", "30",
            "--int-range", "5..5", "--nat-range", "1..3",
        )
        assert code == 1
        assert "is not covered by" in out

    def test_slow_program_passes_at_default_timings(self, capsys):
        # answers 80 ms after each input, longer than the fallback window
        code, out, _ = run_cli(
            capsys, "test", SUM_SPEC_FILE,
            "--program", sys.executable, "--args", str(FIXTURES_DIR / "slow_echo.py"),
            "--tests", "3", "--seed", "0", "--format", "machine",
        )
        assert code == 0
        assert "verdict=AllPassed" in out.strip().splitlines()

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "test", SUM_SPEC_FILE)
        assert code == 2

    def test_unparsable_output_names_the_protocol_error(self, capsys, tmp_path):
        spec = tmp_path / "thousand.iospec"
        spec.write_text("write { 1000 }\n")
        prog = tmp_path / "underscores.py"
        prog.write_text("print('1_000', flush=True)\n")
        argv = ["test", str(spec), "--program", sys.executable, "--args", str(prog),
                "--tests", "1", "--quiescence", "30"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out.endswith(
            "  AlignmentMismatch:\n"
            "    Expected: !{1000}\n"
            "    Got: stop\n"
            "  AbnormalExit: ProtocolError: UnparsableOutput: '1_000'\n"
        )
        code, out, _ = run_cli(capsys, *argv, "--format", "machine")
        assert code == 1
        lines = out.splitlines()
        assert "error=AlignmentMismatch" in lines
        assert "exit_kind=ProtocolError" in lines
        assert "run_detail=UnparsableOutput: '1_000'" in lines


class TestNumericOptions:
    # int() itself takes both `1_0` and the Arabic-Indic digit 3
    @pytest.mark.parametrize("bad", ["1_0", "\u0663", "x"])
    @pytest.mark.parametrize("command, option, template", [
        ("sample", "--seed", "{}"),
        ("sample", "--count", "{}"),
        ("test", "--tests", "{}"),
        ("test", "--seed", "{}"),
        ("test", "--timeout", "{}"),
        ("test", "--quiescence", "{}"),
        ("test", "--int-range", "{}..10"),
        ("test", "--int-range", "-10..{}"),
        ("test", "--nat-range", "{}..10"),
        ("test", "--nat-range", "0..{}"),
    ])
    def test_non_ascii_decimal_is_a_usage_error(self, capsys, command, option, template, bad):
        argv = [command, SUM_SPEC_FILE, f"{option}={template.format(bad)}"]
        if command == "test":
            argv += ["--program", sys.executable]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {option}:" in err

    def test_signed_values_and_negative_range_ends(self):
        args = build_arg_parser().parse_args([
            "test", SUM_SPEC_FILE, "--program", "prog", "--seed", "-3", "--tests", "+4",
            "--timeout", " 900 ", "--int-range=-10..-3", "--nat-range", "2..7",
        ])
        assert args.seed == -3
        assert args.tests == 4
        assert args.timeout == 900
        assert args.int_range == (-10, -3)
        assert args.nat_range == (2, 7)
        args = build_arg_parser().parse_args(["sample", SUM_SPEC_FILE, "--seed=-1", "--count", "2"])
        assert (args.seed, args.count) == (-1, 2)

    @staticmethod
    def check_every_summand_is_minus_5(capsys, tmp_path, int_option, nat_option):
        """Test a program that drops the last summand with `-5..-5` given
        apart after `int_option`: it fails on summands that are all `-5`."""
        buggy = tmp_path / "drops_last.py"
        buggy.write_text(
            "import sys\n"
            "n = int(sys.stdin.readline())\n"
            "xs = [int(sys.stdin.readline()) for _ in range(n)]\n"
            "print(sum(xs[:-1]), flush=True)\n"
        )
        code, out, _ = run_cli(
            capsys, "test", PLAIN_SPEC_FILE,
            "--program", sys.executable, "--args", str(buggy),
            int_option, "-5..-5", nat_option, "1..3",
            "--tests", "30", "--seed", "4", "--quiescence", "30",
        )
        assert code == 1
        (inputs,) = [line for line in out.splitlines() if line.startswith("Input sequence: ")]
        count, *summands = inputs.removeprefix("Input sequence: ").split()
        assert summands == ["?-5"] * int(count[1:])

    def test_negative_range_start_given_apart(self, capsys, tmp_path):
        # `-5..-5` looks like an option to argparse; after `--args` it must
        # still set iospec's range, not become an argument of the program
        self.check_every_summand_is_minus_5(capsys, tmp_path, "--int-range", "--nat-range")
        code, out, _ = run_cli(
            capsys, "test", SUM_SPEC_FILE, *SUM_PROGRAM_OPTIONS,
            "--int-range", "-10..10", "--tests", "3", "--quiescence", "30",
        )
        assert (code, out) == (0, "+++ OK, passed 3 tests.\n")

    def test_abbreviated_range_option_given_apart(self, capsys, tmp_path):
        # argparse takes `--int` for `--int-range`, so the range after it
        # must reach iospec too
        self.check_every_summand_is_minus_5(capsys, tmp_path, "--int", "--nat")

    @pytest.mark.parametrize("option, dest", [
        (option[:end], dest)
        for option, dest in (("--int-range", "int_range"), ("--nat-range", "nat_range"))
        for end in range(3, len(option) + 1)
    ])
    def test_every_abbreviation_of_a_range_option_takes_a_range_given_apart(
        self, option, dest
    ):
        argv = _join_ranges(
            ["test", SUM_SPEC_FILE, "--program", "prog", "--args", "a", option, "-3..-2"]
        )
        args = build_arg_parser().parse_args(argv)
        assert getattr(args, dest) == (-3, -2)
        assert args.args == ["a"]


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "iospec", "accept", SUM_SPEC_FILE,
         "--trace", "?0 !0 stop"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "True"



SUM_PROGRAM_OPTIONS = ["--program", sys.executable, "--args", str(FIXTURES_DIR / "sum_prog.py")]


@pytest.mark.parametrize("spec_text, argv, code, out, err", [
    (None, ["check"], 0, "ok\n", ""),
    (None, ["interpret", "--inputs", "2,3,7"], 0,
     "?2 !{eps, 2} ?3 !{eps, 1} ?7 !{10} stop\n", ""),
    (None, ["sample", "--seed", "3", "--count", "2"], 0,
     "?3 !{eps, 3} ?8 !{eps, 2} ?7 !{eps, 1} ?-6 !{9} stop\n"
     "?3 !{eps, 3} ?-1 !{eps, 2} ?-7 !{eps, 1} ?2 !{-6} stop\n", ""),
    (None, ["accept", "--trace", "?1 !2 stop"], 1, "False\n", ""),
    (None, ["test", "--tests", "3", "--quiescence", "30", *SUM_PROGRAM_OPTIONS], 0,
     "+++ OK, passed 3 tests.\n", ""),
    # an EvalError: the taken branch never read x
    ("if 1 == 1 then { skip } else { read x : ints }\nwrite { x_C }\n",
     ["interpret", "--inputs", ""], 2, "",
     "error: x_C has no value: nothing was read into 'x'\n"),
    # a LimitExceededError
    ("loop { if 0 == 1 then { exit } else { write { 1 } } }\n",
     ["accept", "--trace", "stop"], 2, "", "error: loop ran more than 1000 rounds\n"),
], ids=["check", "interpret", "sample", "accept", "test", "eval_error", "limit_exceeded"])
def test_command_in_a_fresh_process(tmp_path, spec_text, argv, code, out, err):
    # main() in this process finds every module already loaded; a fresh
    # interpreter catches a command that forgot to import what it runs
    spec_file = SUM_SPEC_FILE
    if spec_text is not None:
        spec_file = tmp_path / "spec.iospec"
        spec_file.write_text(spec_text)
    command, *options = argv
    result = subprocess.run(
        [sys.executable, "-m", "iospec", command, str(spec_file), *options],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
