#!/usr/bin/env python3
"""iospec benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root.  NAME is one of

* ``subprocess_sum``: ``run_test_suite`` rounds on ``tests/data/sum.iospec``
  against ``tests/fixtures/sum_progress_prog.py`` (the main suite), plus two
  short known-answer suites against ``bench/fixtures``: an off-by-one sum
  (right verdict: Falsified) and a correct sum that answers 80 ms after each
  input (right verdict: AllPassed).  The runner layer does nearly all the work.
* ``inproc_short``: one-round ``run_test_suite`` calls on ``sum.iospec``
  against the scripted ``tests/programs.py:sum_with_progress``, where the
  fixed cost of each call dominates.
* ``check_traces``: ``accept`` and ``covers(interpret(...), normalize(...))``
  on a seeded corpus of traces with known verdicts (see ``corpus.py``),
  plus ``render_trace`` of the expected trace for rejected ones.

Load comes from one caller in a closed loop: each operation (a round or a
trace check) starts when the previous one ends, and at most one child
program runs at a time.  A run repeats one fixed pass of distinct
operations, built from the seed, until at least S seconds have passed, and
times each operation by its fastest repetition: on a shared host the speed
of the CPU drifts by up to 2x for seconds at a time, and the fastest
repetition shows what the code costs when it gets the CPU.  Verdicts are
checked on every repetition.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` follows each
untraced pass with a replay of it through the public functions, one layer
call at a time, recording spans in memory; it fails unless the replay
reproduces every operation's inputs and verdict, and it reports the
per-layer metrics and the tracing overhead.  The spans of the
first SPAN_FILE_OPS operations are written to ``bench/out/``.

Metric names and units come from ``BENCHMARK.json``.  Each run prints every
metric as ``name = value unit``, then a JSON detail line, then the result
as one JSON line.  The exit code is 1 when an operation raised or got a
verdict other than its known answer.  One wrong verdict is recorded rather
than failed: a correct subprocess program that printed exactly its right
outputs, reported Falsified because output that came after the quiescence
window was attributed to a later input.  The slow-flush program gets it on
every round with an input to answer, and under heavy load any program can.
It counts against ``correct_ratio`` and ``error_ratio`` but is not a failure
of the run.  ``--workload all`` runs every workload with and without
tracing, one child process at a time.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SUM_SPEC_FILE = ROOT / "tests" / "data" / "sum.iospec"
SUM_PROGRESS_PROG = ROOT / "tests" / "fixtures" / "sum_progress_prog.py"
SCRIPTED_PROGRAMS = ROOT / "tests" / "programs.py"
OFF_BY_ONE_PROG = BENCH_DIR / "fixtures" / "sum_off_by_one.py"
SLOW_FLUSH_PROG = BENCH_DIR / "fixtures" / "sum_slow_flush.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("subprocess_sum", "inproc_short", "check_traces")
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
SETUP_STARTS = 11         # fresh interpreters timed for setup_s
SPAWN_FLOOR_STARTS = 7
PARSE_REPEATS = 50
TRACE_OPS_CAP = 20000     # operations replayed with tracing on
SPAN_FILE_OPS = 2000      # operations whose spans are written out

# Suites of subprocess_sum: (name, program, suite seed, rounds per pass,
# known verdict).  Seeds are fixed, so every run tests the same rounds and
# --seed only orders them.
SUBPROCESS_SUITES = (
    ("main", SUM_PROGRESS_PROG, 0, 32, "AllPassed"),
    ("off_by_one", OFF_BY_ONE_PROG, 1, 6, "Falsified"),
    ("slow_flush", SLOW_FLUSH_PROG, 2, 6, "AllPassed"),
)
INPROC_PASS = 1000        # rounds per pass of inproc_short

OK, WRONG, LATE_OUTPUT, RAISED = "ok", "wrong", "late_output", "raised"

_REQUIRED = (SRC / "iospec" / "__init__.py", SUM_SPEC_FILE, SUM_PROGRESS_PROG,
             SCRIPTED_PROGRAMS, OFF_BY_ONE_PROG, SLOW_FLUSH_PROG, BENCHMARK_JSON)
_missing = [str(p.relative_to(ROOT)) for p in _REQUIRED if not p.is_file()]
if _missing:
    sys.exit("bench/run.py: run from a full iospec checkout; missing " + ", ".join(_missing))

sys.path.insert(0, str(SRC))

from iospec import (  # noqa: E402
    Covered,
    DEFAULT_REGISTRY,
    ExitKind,
    GenerationFailureError,
    GenerationLimits,
    Out,
    OutputWordSet,
    SamplingPolicy,
    SubprocessConfig,
    TestConfig,
    Verdict,
    accept,
    covers,
    interpret,
    normalize,
    normalize_spec,
    parse_spec,
    render_trace,
    run_scripted,
    run_subprocess,
    run_test_suite,
    sample_generalized_trace,
)

import corpus  # noqa: E402

now = time.perf_counter_ns


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory: operation id, name, group (a corpus family or
    -1), parent span index (-1 for none), start and end in ns.  Columns are
    arrays, so recording creates no objects the garbage collector tracks."""

    ROOTS = ("harness.round", "check")  # one per operation

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.op, self.name, self.group, self.parent = (array("l") for _ in range(4))
        self.start, self.end = array("q"), array("q")

    def __len__(self) -> int:
        return len(self.op)

    def _label(self, text: str | None) -> int:
        if text is None:
            return -1
        if text not in self._label_ids:
            self._label_ids[text] = len(self.labels)
            self.labels.append(text)
        return self._label_ids[text]

    def _append(self, op: int, name: str, group: str | None, parent: int, start: int, end: int) -> int:
        self.op.append(op)
        self.name.append(self._label(name))
        self.group.append(self._label(group))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.op) - 1

    def open(self, op: int, name: str) -> int:
        return self._append(op, name, None, -1, now(), 0)

    def close(self, index: int) -> None:
        self.end[index] = now()

    def add(self, op: int, name: str, parent: int, start: int, group: str | None = None) -> None:
        self._append(op, name, group, parent, start, now())

    def ms_by(self, bucket, roots: bool) -> dict[int, float]:
        """Total ms of the root spans (or of the spans with a parent), by
        `bucket(op id)`."""
        root_ids = {self._label_ids.get(name) for name in self.ROOTS}
        out: dict[int, float] = {}
        for i in range(len(self.op)):
            is_root = self.parent[i] < 0 and self.name[i] in root_ids
            if is_root if roots else self.parent[i] >= 0:
                key = bucket(self.op[i])
                out[key] = out.get(key, 0.0) + (self.end[i] - self.start[i]) / 1e6
        return out

    def means(self, keep) -> dict[str, float]:
        """Mean ms per call by span name and by name.group, over the spans of
        the operations for which `keep(op id)` holds."""
        totals: dict[str, list] = {}
        for i in range(len(self.op)):
            if not keep(self.op[i]):
                continue
            name = self.labels[self.name[i]]
            keys = [name]
            if self.group[i] >= 0:
                keys.append(f"{name}.{self.labels[self.group[i]]}")
            for key in keys:
                total = totals.setdefault(key, [0, 0])
                total[0] += 1
                total[1] += self.end[i] - self.start[i]
        return {key: ns / calls / 1e6 for key, (calls, ns) in totals.items()}

    def write(self, path: Path, max_op: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if self.start else 0
        with path.open("w") as f:
            f.write("op\tname\tgroup\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.op)):
                if self.op[i] < max_op:
                    group = self.labels[self.group[i]] if self.group[i] >= 0 else ""
                    f.write(f"{self.op[i]}\t{self.labels[self.name[i]]}\t{group}\t{self.parent[i]}\t"
                            f"{self.start[i] - base}\t{self.end[i] - base}\n")


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Outcome:
    key: Any        # what every pass and the replay must reproduce
    status: str     # OK, WRONG, LATE_OUTPUT or RAISED
    inputs: int = 0


def differs(a: Outcome, b: Outcome) -> bool:
    """Two runs of one operation disagree.  A round may flip between its
    right verdict and a LATE_OUTPUT one, because that verdict depends on
    timing; that is the recorded defect, not a disagreement."""
    return (a.key, a.status) != (b.key, b.status) and LATE_OUTPUT not in (a.status, b.status)


@dataclass(frozen=True)
class Round:
    cfg: TestConfig
    target: Any
    expected: Verdict


class InputRecorder:
    """Scripted program wrapper keeping the inputs the program was fed."""

    def __init__(self, program) -> None:
        self.program = program
        self.inputs: list[int] = []

    def __call__(self):
        self.inputs = []
        return self._drive(self.program(), self.inputs)

    @staticmethod
    def _drive(gen, log):
        feed = None
        while True:
            try:
                effect = gen.send(feed)
            except StopIteration:
                return
            feed = yield effect
            if feed is not None:
                log.append(feed)


def sum_progress_outputs(inputs) -> list[int]:
    """What the correct subprocess programs print: the count of summands
    still to come before each summand, then the sum."""
    n = inputs[0]
    return [n - i for i in range(n)] + [sum(inputs[1:n + 1])]


def _one_round_config(seed: int) -> TestConfig:
    # `iospec test --tests 1 --seed SEED` with every other flag at its default
    return TestConfig(num_tests=1, policy=SamplingPolicy(seed=seed))


class RoundWorkload:
    """Test rounds: each operation is `run_test_suite` with one round."""

    def __init__(self, name: str, recorder: InputRecorder | None):
        self.name = name
        self.recorder = recorder
        self.spec_texts = [SUM_SPEC_FILE.read_text()]
        self.spec = parse_spec(self.spec_texts[0])
        self.exit_kinds = {kind.value: 0 for kind in ExitKind}
        self.sample_attempts = self.sample_successes = 0

    def run(self, op: Round) -> Outcome:
        report = run_test_suite(self.spec, op.target, op.cfg)
        ce = report.counterexample
        if ce is None:
            return self._outcome(op, report.verdict, None, None, None)
        return self._outcome(op, report.verdict, ce.inputs, ce.exit_kind, ce.actual)

    def traced(self, op: Round, tracer: Tracer, op_id: int) -> Outcome:
        """The round `run_test_suite` would run, one public call per span."""
        cfg = op.cfg
        root = tracer.open(op_id, "harness.round")
        rng = random.Random(cfg.policy.seed)
        gt = None
        for _ in range(cfg.max_generation_attempts):
            attempt_policy = replace(cfg.policy, seed=rng.getrandbits(64))
            self.sample_attempts += 1
            start = now()
            try:
                gt = sample_generalized_trace(self.spec, DEFAULT_REGISTRY, attempt_policy, cfg.limits)
            except GenerationFailureError:
                pass
            tracer.add(op_id, "semantics.sample_generalized_trace", root, start)
            if gt is not None:
                self.sample_successes += 1
                break
        if gt is None:
            tracer.close(root)
            return self._outcome(op, Verdict.GENERATION_STUCK, None, None, None)
        start = now()
        inputs = gt.inputs()
        tracer.add(op_id, "traces.GeneralizedTrace.inputs", root, start)
        subprocess_target = isinstance(op.target, SubprocessConfig)
        start = now()
        if subprocess_target:
            outcome = run_subprocess(op.target, inputs)
        else:
            outcome = run_scripted(op.target, inputs)
        tracer.add(op_id, "runner.run_subprocess" if subprocess_target else "runner.run_scripted", root, start)
        start = now()
        nt = normalize(outcome.trace)
        tracer.add(op_id, "traces.normalize", root, start)
        start = now()
        result = covers(gt, nt)
        tracer.add(op_id, "traces.covers", root, start)
        tracer.close(root)
        # normalize_spec runs inside every sample; timed here on its own
        start = now()
        normalize_spec(self.spec)
        tracer.add(op_id, "syntax.normalize_spec", -1, start)

        self.exit_kinds[outcome.exit_kind.value] += 1
        passed = isinstance(result, Covered) and outcome.clean
        verdict = Verdict.ALL_PASSED if passed else Verdict.FALSIFIED
        shown = None if passed else tuple(inputs)
        return self._outcome(op, verdict, shown, outcome.exit_kind, outcome.trace, len(inputs))

    def _outcome(self, op: Round, verdict: Verdict, shown_inputs, exit_kind, actual,
                 inputs: int = 0) -> Outcome:
        # Reports show a round's inputs only when it fails; scripted rounds
        # also record what the program was fed.
        fed = shown_inputs if self.recorder is None else tuple(self.recorder.inputs)
        if verdict is op.expected:
            status = OK
        elif (isinstance(op.target, SubprocessConfig) and op.expected is Verdict.ALL_PASSED
              and verdict is Verdict.FALSIFIED and exit_kind is ExitKind.CLEAN_HALT
              and [s.value for s in actual.steps if isinstance(s, Out)] == sum_progress_outputs(shown_inputs)):
            # the program printed exactly its right outputs, but some came
            # after the quiescence window and were attributed to a later input
            status = LATE_OUTPUT
        else:
            status = WRONG
        return Outcome((verdict.value, fed), status, inputs)


class SubprocessSum(RoundWorkload):
    def __init__(self, seed: int, trace: bool):
        super().__init__("subprocess_sum", None)
        self.ops = []
        for _suite, program, suite_seed, count, expected in SUBPROCESS_SUITES:
            # as `iospec test --program python3 --args PROGRAM` builds it
            target = SubprocessConfig(executable=sys.executable, args=(str(program),))
            rng = random.Random(suite_seed)
            for _ in range(count):
                self.ops.append(Round(_one_round_config(rng.getrandbits(64)), target, Verdict(expected)))
        random.Random(seed).shuffle(self.ops)


class InprocShort(RoundWorkload):
    def __init__(self, seed: int, trace: bool):
        module_spec = importlib.util.spec_from_file_location("bench_scripted_programs", SCRIPTED_PROGRAMS)
        programs = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(programs)
        program = programs.sum_with_progress
        recorder = InputRecorder(program) if trace else None
        super().__init__("inproc_short", recorder)
        rng = random.Random(seed)
        self.ops = [Round(_one_round_config(rng.getrandbits(64)), recorder or program, Verdict.ALL_PASSED)
                    for _ in range(INPROC_PASS)]


class CheckTraces:
    """Trace checks: `accept` and `covers` after `interpret` on known traces."""

    name = "check_traces"

    def __init__(self, seed: int, trace: bool):
        self.spec_texts = [SUM_SPEC_FILE.read_text(), corpus.SKIPPABLE_SPEC, corpus.WIDE_SPEC]
        default = GenerationLimits()
        self.specs = {
            family: (parse_spec(text), limits)
            for family, text, limits in zip(
                corpus.FAMILIES, self.spec_texts, (corpus.LONG_LIMITS, default, default))
        }
        self.ops = corpus.build_pass(seed)
        self.disagreements = 0
        self.words = {family: [0, 0] for family in corpus.FAMILIES}  # checks, words

    def run(self, check: corpus.Check) -> Outcome:
        spec, limits = self.specs[check.family]
        accepted = accept(spec, check.trace, DEFAULT_REGISTRY, limits)
        gt = interpret(spec, check.trace.inputs(), DEFAULT_REGISTRY, limits)
        covered = isinstance(covers(gt, normalize(check.trace)), Covered)
        if not covered:
            render_trace(gt)
        return self._outcome(check, accepted, covered)

    def traced(self, check: corpus.Check, tracer: Tracer, op_id: int) -> Outcome:
        spec, limits = self.specs[check.family]
        family = check.family
        root = tracer.open(op_id, "check")
        start = now()
        accepted = accept(spec, check.trace, DEFAULT_REGISTRY, limits)
        tracer.add(op_id, "semantics.accept", root, start, family)
        start = now()
        inputs = check.trace.inputs()
        tracer.add(op_id, "traces.Trace.inputs", root, start, family)
        start = now()
        gt = interpret(spec, inputs, DEFAULT_REGISTRY, limits)
        tracer.add(op_id, "semantics.interpret", root, start, family)
        start = now()
        nt = normalize(check.trace)
        tracer.add(op_id, "traces.normalize", root, start, family)
        start = now()
        covered = isinstance(covers(gt, nt), Covered)
        tracer.add(op_id, "traces.covers", root, start, family)
        if not covered:
            start = now()
            render_trace(gt)
            tracer.add(op_id, "traces.render_trace", root, start, family)
        tracer.close(root)
        words = self.words[family]
        words[0] += 1
        words[1] += sum(len(s.words) for s in gt.steps if isinstance(s, OutputWordSet))
        return self._outcome(check, accepted, covered, len(inputs))

    def _outcome(self, check: corpus.Check, accepted: bool, covered: bool, inputs: int = 0) -> Outcome:
        if accepted != covered:
            self.disagreements += 1
        ok = accepted == covered == check.expected
        return Outcome((accepted, covered), OK if ok else WRONG, inputs)


def make_workload(name: str, seed: int, trace: bool):
    return {"subprocess_sum": SubprocessSum, "inproc_short": InprocShort,
            "check_traces": CheckTraces}[name](seed, trace)


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Run:
    outcomes: list = field(default_factory=list)     # of each operation, first pass
    best_ms: array = field(default_factory=lambda: array("d"))  # fastest time of each operation
    pass_ms: list = field(default_factory=list)      # summed operation times of each pass
    statuses: dict = field(default_factory=lambda: {OK: 0, WRONG: 0, LATE_OUTPUT: 0, RAISED: 0})
    unstable: int = 0                                # outcomes differing from the first pass's


def run_op(workload, op) -> Outcome:
    try:
        return workload.run(op)
    except Exception:  # an operation that raises is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Outcome(None, RAISED)


def run_pass(workload, run: Run) -> None:
    """One pass of the workload's operations, one at a time, each timed."""
    first = not run.pass_ms
    total = 0.0
    for i, op in enumerate(workload.ops):
        t0 = now()
        outcome = run_op(workload, op)
        ms = (now() - t0) / 1e6
        total += ms
        run.statuses[outcome.status] += 1
        if first:
            run.outcomes.append(outcome)
            run.best_ms.append(ms)
        else:
            run.best_ms[i] = min(run.best_ms[i], ms)
            if differs(outcome, run.outcomes[i]):
                run.unstable += 1
    run.pass_ms.append(total)


def closed_loop(workload, seconds: float) -> Run:
    """Repeat the workload's pass until `seconds` have passed."""
    run = Run()
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(workload, run)
        if time.perf_counter() >= deadline:
            return run


def faster_half(times: list[float]) -> list[int]:
    """Indices of the faster half of the passes (the middle one included)."""
    keep = math.ceil(len(times) / 2)
    return sorted(range(len(times)), key=times.__getitem__)[:keep]


def percentile(sorted_values, p: float) -> float:
    pos = p / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten of `count` values
    beyond it."""
    return max(p for p in TAIL_PERCENTILES if p == 50 or count * (100 - p) / 100 >= 10)


def measure_setup(spec_texts: list[str]) -> list[float]:
    """Seconds from spawn to exit of fresh interpreters that import the CLI
    and parse the workload's specs: what every `iospec` call pays first."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import iospec.cli; "
            "[iospec.parse_spec(t) for t in sys.argv[2:]]")
    times = []
    for i in range(SETUP_STARTS + 1):  # the first start may write bytecode caches
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), *spec_texts])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
        if i:
            times.append(elapsed)
    return times


def spawn_floor_ms() -> float:
    """Median Popen-to-exit of a do-nothing child under this interpreter."""
    times = []
    for _ in range(SPAWN_FLOOR_STARTS):
        t0 = now()
        proc = subprocess.Popen([sys.executable, "-c", ""], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.communicate()
        times.append((now() - t0) / 1e6)
    return statistics.median(times)


def parse_spec_ms(spec_texts: list[str]) -> float:
    total = 0.0
    for text in spec_texts:
        times = []
        for _ in range(PARSE_REPEATS):
            t0 = now()
            parse_spec(text)
            times.append((now() - t0) / 1e6)
        total += statistics.median(times)
    return total


def count_nodes(value) -> int:
    """Syntax tree nodes: every dataclass instance reachable from `value`."""
    if is_dataclass(value):
        return 1 + sum(count_nodes(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list, frozenset)):
        return sum(count_nodes(v) for v in value)
    return 0


def end_to_end(workload, seconds: float) -> tuple[dict, dict, Run]:
    setup = measure_setup(workload.spec_texts)
    run = closed_loop(workload, seconds)
    best = sorted(run.best_ms)
    n = len(best)
    tail_p = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / (sum(best) / 1000),
        "op_p50_ms": percentile(best, 50),
        "op_tail_ms": percentile(best, tail_p),
        "correct_ratio": run.statuses[OK] / sum(run.statuses.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "ops_per_pass": n, "passes": len(run.pass_ms), "pass_ms": run.pass_ms,
        "tail_percentile": tail_p, "ops_beyond_tail": int(n * (100 - tail_p) / 100),
        "setup_starts_s": setup, "statuses": run.statuses,
    }
    return metrics, detail, run


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, dict, Run, list[str]]:
    """Untraced passes, each followed by its traced replay, so that both
    sides of a pair see the same host speed."""
    run = Run()
    per_pass = len(workload.ops)
    tracer = Tracer()
    mismatches = []
    inputs = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(workload, run)
        p = len(run.pass_ms) - 1
        for i, (op, expected) in enumerate(zip(workload.ops, run.outcomes)):
            op_id = p * per_pass + i
            outcome = workload.traced(op, tracer, op_id)
            inputs += outcome.inputs
            if differs(outcome, expected):
                mismatches.append(f"operation {op_id}: untraced {expected.key} {expected.status}, "
                                  f"traced {outcome.key} {outcome.status}")
        if time.perf_counter() >= deadline or (p + 2) * per_pass > TRACE_OPS_CAP:
            break
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv", SPAN_FILE_OPS)

    passes = len(run.pass_ms)
    untraced_ms = run.pass_ms
    traced_ms = tracer.ms_by(lambda op: op // per_pass, roots=True)
    child_ms = tracer.ms_by(lambda op: op // per_pass, roots=False)
    kept = set(faster_half([traced_ms[p] for p in range(passes)]))
    means = tracer.means(lambda op: op // per_pass in kept)
    overhead = statistics.median(traced_ms[p] / untraced_ms[p] - 1 for p in range(passes))
    # what run_test_suite spends beyond the calls it makes: an untraced
    # round minus the child spans of its traced replay
    self_ms = statistics.median((untraced_ms[p] - child_ms[p]) / per_pass for p in range(passes))

    def mean_ms(key: str) -> float:
        return means.get(key, 0.0)

    m = {name: 0.0 for name in declared_metrics("per_layer")}
    m["error_ratio"] = 1 - run.statuses[OK] / sum(run.statuses.values())
    m["inputs_per_op"] = inputs / (passes * per_pass)
    m["trace.overhead_pct"] = overhead * 100
    m["parser.parse_spec_ms"] = parse_spec_ms(workload.spec_texts)
    m["syntax.spec_nodes"] = sum(count_nodes(parse_spec(t)) for t in workload.spec_texts)
    m["traces.normalize_ms"] = mean_ms("traces.normalize")
    m["traces.covers_ms"] = mean_ms("traces.covers")
    detail = {"ops_per_pass": per_pass, "passes": passes, "kept_traced_passes": len(kept),
              "spans": len(tracer), "statuses": run.statuses}
    if isinstance(workload, RoundWorkload):
        m["semantics.sample_ms"] = mean_ms("semantics.sample_generalized_trace")
        m["semantics.sample_success_ratio"] = workload.sample_successes / workload.sample_attempts
        m["syntax.normalize_spec_ms"] = mean_ms("syntax.normalize_spec")
        m["runner.run_scripted_ms"] = mean_ms("runner.run_scripted")
        m["runner.run_subprocess_ms"] = mean_ms("runner.run_subprocess")
        m["harness.round_self_ms"] = self_ms
        for kind, count in workload.exit_kinds.items():
            m[f"runner.exit_kind.{kind}"] = count
        if isinstance(workload, SubprocessSum):
            floor = spawn_floor_ms()
            m["runner.spawn_floor_ms"] = floor
            m["runner.ms_per_input"] = (m["runner.run_subprocess_ms"] - floor) / m["inputs_per_op"]
            detail["spawn_floor_ms"] = floor
    else:
        m["semantics.accept_covers_disagreements"] = workload.disagreements
        for family in corpus.FAMILIES:
            m[f"semantics.interpret_ms.{family}"] = mean_ms(f"semantics.interpret.{family}")
            m[f"semantics.accept_ms.{family}"] = mean_ms(f"semantics.accept.{family}")
            m[f"traces.covers_ms.{family}"] = mean_ms(f"traces.covers.{family}")
            m[f"traces.render_ms.{family}"] = mean_ms(f"traces.render_trace.{family}")
            checks, words = workload.words[family]
            m[f"traces.words_per_trace.{family}"] = words / checks
        wide_spec, wide_limits = workload.specs["wide"]
        start = now()
        interpret(wide_spec, [corpus.WIDE_COLLIDING_X], DEFAULT_REGISTRY, wide_limits)
        m["semantics.interpret_ms.wide_hash_collision"] = (now() - start) / 1e6
    return m, detail, run, mismatches


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "implementation": platform.python_implementation()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = make_workload(name, seed, trace)
    section = "per_layer" if trace else "end_to_end"
    mismatches: list[str] = []
    if trace:
        metrics, detail, run, mismatches = per_layer(workload, seconds, seed)
    else:
        metrics, detail, run = end_to_end(workload, seconds)
    units = declared_metrics(section)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for mismatch in mismatches[:10]:
        print("replay mismatch:", mismatch, file=sys.stderr)
    if run.unstable:
        print(f"{run.unstable} outcomes differ from the first pass's", file=sys.stderr)
    failed = run.statuses[WRONG] + run.statuses[RAISED] + run.unstable + len(mismatches)
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    for metric, unit in units.items():
        print(f"  {metric} = {metrics[metric]:.6g} {unit}")
    detail.update(workload=name, machine=machine_facts(), unstable_outcomes=run.unstable,
                  replay_mismatches=len(mismatches))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run.statuses.values()),
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]} for metric in units},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload with tracing off and on, one child process at a time."""
    failing = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
            if proc.returncode != 0:
                failing.append(f"{name} --trace {trace}")
    print(json.dumps({"correct": not failing, "failing": failing}))
    return 1 if failing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
