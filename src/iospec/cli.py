"""Command-line front end.

Exit codes: 0 success (or AllPassed / trace accepted), 1 check failure
(violations, Falsified, trace rejected, run-level errors), 2 usage,
parse, configuration or evaluation errors and generation giving up (a
generation limit hit, GenerationStuck).

Each command imports only the modules it runs, so `check` loads just the
parser and only `test` loads the harness and the subprocess runner.
"""

from __future__ import annotations

import argparse
import re
import sys

from .parser import ParseError, StaticError, parse_decimal, parse_spec

USAGE_ERROR = 2


def _load_spec(path: str):
    try:
        # utf-8-sig drops the byte-order mark some editors save
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SystemExit(_diag(f"cannot read {path}: {err}"))
    return parse_spec(text)


def _diag(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _parse_int(text: str) -> int:
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        return (parse_decimal(lo), parse_decimal(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")


def _parse_count(text: str) -> int:
    try:
        count = parse_decimal(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return count


def _parse_inputs(text: str) -> list[int]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return [parse_decimal(part) for part in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"inputs must be integers: {text!r}")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="iospec",
        description="Check, run, and test console I/O behavior specifications.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse a spec file and report violations")
    check.add_argument("spec_file")

    run = sub.add_parser("interpret", help="run a spec on a fixed input sequence")
    run.add_argument("spec_file")
    run.add_argument("--inputs", type=_parse_inputs, required=True,
                     metavar='"v1,v2,..."')

    sample = sub.add_parser("sample", help="print random generalized traces")
    sample.add_argument("spec_file")
    sample.add_argument("--seed", type=_parse_int, default=0)
    sample.add_argument("--count", type=_parse_count, default=1)

    test = sub.add_parser("test", help="test a program against a spec")
    test.add_argument("spec_file")
    test.add_argument("--program", required=True, help="path to the executable")
    test.add_argument("--args", nargs="*", default=[], help="extra program arguments")
    test.add_argument("--tests", type=_parse_int, default=100)
    test.add_argument("--seed", type=_parse_int, default=0)
    test.add_argument("--timeout", type=_parse_int, default=5000, metavar="MS")
    test.add_argument("--quiescence", type=_parse_int, default=50, metavar="MS",
                      help="fallback window: where /proc cannot show the program "
                           "waiting for input, its turn ends after MS without output")
    test.add_argument("--int-range", type=_parse_range, default=(-10, 10),
                      metavar="LO..HI")
    test.add_argument("--nat-range", type=_parse_range, default=(0, 10),
                      metavar="LO..HI")
    test.add_argument("--format", choices=["human", "machine"], default="human")
    test.add_argument("--feedback", choices=["full", "example"], default="full")

    acc = sub.add_parser("accept", help="check one trace against a spec")
    acc.add_argument("spec_file")
    acc.add_argument("--trace", required=True, metavar='"?1 !2 stop"')

    return top


def _cmd_check(args) -> int:
    try:
        _load_spec(args.spec_file)
    except StaticError as err:
        for violation in err.violations:
            print(str(violation))
        return 1
    print("ok")
    return 0


def _cmd_interpret(args) -> int:
    from .semantics import InterpretError, interpret
    from .traces import render_trace

    spec = _load_spec(args.spec_file)
    try:
        print(render_trace(interpret(spec, args.inputs)))
    except InterpretError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_sample(args) -> int:
    from .semantics import GenerationFailureError, SamplingPolicy, sample_generalized_trace
    from .traces import render_trace

    spec = _load_spec(args.spec_file)
    for i in range(args.count):
        try:
            gt = sample_generalized_trace(spec, policy=SamplingPolicy(seed=args.seed + i))
        except GenerationFailureError as err:
            return _diag(str(err))
        print(render_trace(gt))
    return 0


def _cmd_test(args) -> int:
    from .harness import (
        ConfigError,
        FeedbackMode,
        ReportFormat,
        TestConfig,
        Verdict,
        format_feedback,
        run_test_suite,
    )
    from .runner import SpawnError, SubprocessConfig
    from .semantics import SamplingPolicy

    spec = _load_spec(args.spec_file)
    try:
        cfg = TestConfig(
            num_tests=args.tests,
            policy=SamplingPolicy(
                integer_range=args.int_range,
                natural_range=args.nat_range,
                seed=args.seed,
            ),
        )
        target = SubprocessConfig(
            executable=args.program,
            args=tuple(args.args),
            per_run_timeout_ms=args.timeout,
            quiescence_window_ms=args.quiescence,
        )
    except (ConfigError, ValueError) as err:
        return _diag(str(err))
    try:
        report = run_test_suite(spec, target, cfg)
    except SpawnError as err:
        return _diag(str(err))
    print(format_feedback(report, ReportFormat(args.format), FeedbackMode(args.feedback)))
    if report.verdict is Verdict.ALL_PASSED:
        return 0
    if report.verdict is Verdict.FALSIFIED:
        return 1
    return USAGE_ERROR  # GenerationStuck


def _cmd_accept(args) -> int:
    from .semantics import accept
    from .traces import parse_trace

    spec = _load_spec(args.spec_file)
    trace = parse_trace(args.trace.removeprefix("\ufeff"))
    verdict = accept(spec, trace)
    print(verdict)
    return 0 if verdict else 1


_COMMANDS = {
    "check": _cmd_check,
    "interpret": _cmd_interpret,
    "sample": _cmd_sample,
    "test": _cmd_test,
    "accept": _cmd_accept,
}


_RANGE_OPTIONS = ("--int-range", "--nat-range")
_RANGE = re.compile(r"-?[0-9]+\.\.-?[0-9]+")


def _is_range_option(arg: str) -> bool:
    """Whether `arg` names a range option in full or abbreviated, as in
    `--int`: argparse takes any prefix that only one option of `test` has,
    and no other option of `test` starts with `--i` or `--n`."""
    return len(arg) > 2 and any(option.startswith(arg) for option in _RANGE_OPTIONS)


def _join_ranges(argv: list[str]) -> list[str]:
    """`--int-range -10..10` as `--int-range=-10..10`, which argparse reads:
    given apart, it takes `-10..10` for an option, not a value."""
    joined: list[str] = []
    for arg in argv:
        if joined and _is_range_option(joined[-1]) and _RANGE.fullmatch(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_arg_parser()
    argv = _join_ranges(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors already
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, StaticError) as err:
        return _diag(str(err))
    except SystemExit as err:
        return int(err.code or 0)
    except Exception as err:
        # Only a command that loaded the interpreters can raise their
        # errors, so they are looked up here rather than imported up front.
        from .semantics import EvalError, LimitExceededError

        if isinstance(err, (EvalError, LimitExceededError)):
            return _diag(str(err))
        raise


if __name__ == "__main__":
    sys.exit(main())
