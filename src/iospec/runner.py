"""Running programs under test on a fixed input sequence, recording traces.

Scripted programs run in-process and give exact traces: a program is a
zero-argument callable returning a generator that yields ``Read()`` to
request the next integer (delivered as the value of the yield) and
``Write(v)`` to emit one, and returns to halt::

    def summer():
        n = yield Read()
        total = 0
        for _ in range(n):
            x = yield Read()
            total += x
        yield Write(total)

Both runners record a run directly in the form a `Trace` keeps: the
inputs read and the word written in each gap, however the run ends.

External executables speak a line protocol on stdin/stdout (one decimal
integer per line) and take turns with the runner: an input is written only
once the program's previous turn is over, that is when its stdout has
closed, or when no task of it or its descendants can run, one of them
sleeps reading stdin (read on fd 0, or a poll-family call), nothing written
to stdin is left unread and all its output has been taken (proc(5),
/proc/pid/syscall).  Output must still be flushed before the program reads
again.  Timed sleeps never end a turn, so slow answers are attributed to
the right input.  Where /proc cannot tell (no /proc, or a machine whose
syscall numbers are not known here), a turn ends instead once no output
has arrived for the quiescence window, and output flushed later than that
is attributed to the next input.  An input whose whole line is still
unread in the pipe when the run ends was never consumed: the trace leaves
it out, and all output after the last input read falls in its final gap.
A program that waits for input after the last one ends its run with an
input underflow, as a scripted program does, except where /proc cannot
tell: a program silent after its last input may still be computing, so
there it runs until the per-run timeout.
One that prints more than MAX_OUTPUT_BYTES or MAX_OUTPUT_LINES ends its
run with an output overflow.  The program leads a session of its own, and
its whole process group is killed when the run ends, so nothing it starts
outlives the run.
"""

from __future__ import annotations

import array
import enum
import errno
import fcntl
import os
import selectors
import signal
import subprocess
import termios
import time
from typing import Callable, Generator

from .parser import parse_decimal
from .syntax import _Record
from .traces import Trace, Word


class Read(_Record):
    """Effect: request the next input integer."""


class Write(_Record):
    """Effect: emit one output integer."""

    value: int


ScriptedProgram = Callable[[], Generator]


class ExitKind(enum.Enum):
    CLEAN_HALT = "CleanHalt"
    TIMED_OUT = "TimedOut"
    CRASHED = "Crashed"
    PROTOCOL_ERROR = "ProtocolError"


class RunOutcome(_Record):
    trace: Trace
    exit_kind: ExitKind
    detail: str = ""
    exit_code: int | None = None
    stderr: str = ""

    @property
    def consumed_inputs(self) -> int:
        return len(self.trace.input_values)

    @property
    def clean(self) -> bool:
        return self.exit_kind is ExitKind.CLEAN_HALT


def run_scripted(program: ScriptedProgram, inputs) -> RunOutcome:
    """Drive a scripted program on the inputs; never raises for program
    misbehavior, which lands in the outcome instead.

    Requesting input with none left is a protocol error ending the run;
    halting with inputs left over is tolerated (the trace simply consumes
    fewer inputs, which the coverage check will judge).  The trace is
    built from its gaps: the word written before each input read and the
    one after the last, cut short where the run ends.
    """
    values = tuple(inputs)
    gaps: list[Word] = []
    word: list[int] = []
    gen = program()
    feed = None
    while True:
        try:
            effect = gen.send(feed)
        except StopIteration:
            kind, detail = ExitKind.CLEAN_HALT, ""
            break
        except Exception as err:  # the program under test blew up
            kind, detail = ExitKind.CRASHED, repr(err)
            break
        feed = None
        if isinstance(effect, Read):
            if len(gaps) == len(values):
                gen.close()
                kind, detail = ExitKind.PROTOCOL_ERROR, "InputUnderflow: program wants more input"
                break
            feed = values[len(gaps)]
            gaps.append(tuple(word))
            word.clear()
        elif isinstance(effect, Write):
            word.append(effect.value)
        else:
            gen.close()
            kind, detail = ExitKind.PROTOCOL_ERROR, f"BadEffect: yielded {effect!r}"
            break
    gaps.append(tuple(word))
    return RunOutcome(Trace._of(values[:len(gaps) - 1], tuple(gaps)), kind, detail)


# ---------------------------------------------------------------------------
# External processes


class SubprocessConfig(_Record):
    executable: str
    args: tuple[str, ...] = ()
    per_run_timeout_ms: int = 5000
    quiescence_window_ms: int = 50

    def __post_init__(self) -> None:
        if isinstance(self.args, (str, bytes)):
            raise TypeError("args must be a sequence of arguments, not one string")
        object.__setattr__(self, "args", tuple(self.args))
        # Each on its own: the window applies only where /proc cannot tell,
        # and one longer than the time left ends the run as a timeout.
        if self.per_run_timeout_ms <= 0 or self.quiescence_window_ms <= 0:
            raise ValueError("need timeout > 0 and quiescence window > 0")


class SpawnError(Exception):
    """The program under test could not be started at all."""


# A run that prints more than this ends as a protocol error, so a program
# printing forever cannot fill memory until the timeout.
MAX_OUTPUT_BYTES = 1 << 20
MAX_OUTPUT_LINES = 100_000

# Bounds on the pause between two /proc probes within one turn.
_PROBE_MIN_S = 0.0002
_PROBE_MAX_S = 0.005

# Syscall numbers (asm/unistd.h) by machine: read and readv, whose first
# argument is the descriptor, and the poll family, mapped to the index of
# the argument counting the descriptors watched (None for epoll, which
# keeps its set in the kernel).  A poll-family call watching no descriptor
# is a sleep: Python before 3.11 sleeps in select(0, ...).
_WaitCalls = tuple[frozenset[int], dict[int, int | None]]
_STDIN_WAITS: dict[str, _WaitCalls] = {
    # read readv / poll select epoll_wait pselect6 ppoll epoll_pwait
    "x86_64": (frozenset({0, 19}), {7: 1, 23: 0, 232: None, 270: 0, 271: 1, 281: None}),
    # read readv / epoll_pwait pselect6 ppoll
    "aarch64": (frozenset({63, 65}), {22: None, 72: 0, 73: 1}),
}


def _tree_waits(pid: int, calls: _WaitCalls) -> bool | None:
    """Whether the process tree under `pid` waits for input, per /proc.

    True when no task of the process or its descendants is runnable and at
    least one sleeps reading fd 0 or in a poll-family call; None when /proc
    cannot tell (see proc(5), /proc/pid/syscall).  False, to probe again,
    when a descendant or a task ends while we look: threads come and go in
    a JVM, a Go program or GHC's threaded runtime.
    """
    reads, polls = calls
    waiting = False
    pending = [pid]
    while pending:
        proc_pid = pending.pop()
        try:
            tids = os.listdir(f"/proc/{proc_pid}/task")
        except (FileNotFoundError, ProcessLookupError):
            if proc_pid == pid:  # the child itself stays until reaped
                return None
            return False  # a descendant ended while we looked: probe again
        except OSError:
            return None
        for tid in tids:
            task = f"/proc/{proc_pid}/task/{tid}"
            try:
                with open(f"{task}/syscall", "rb") as f:
                    fields = f.read().split()
                if fields[0] == b"running":
                    return False
                number = int(fields[0])
                if number in reads:
                    waiting = waiting or int(fields[1], 16) == 0
                elif number in polls:
                    count_arg = polls[number]
                    waiting = waiting or count_arg is None or int(fields[1 + count_arg], 16) > 0
                with open(f"{task}/children", "rb") as f:
                    pending.extend(int(child) for child in f.read().split())
            except OSError as err:
                if err.errno == errno.ESRCH or not os.path.lexists(task):
                    return False  # the task ended while we looked: probe again
                # a live task lacks a file (`children` needs
                # CONFIG_PROC_CHILDREN) or refuses its read
                return None
    return waiting


def _unread_bytes(fd: int) -> int:
    count = array.array("i", [0])
    fcntl.ioctl(fd, termios.FIONREAD, count)
    return count[0]


class _Abort(Exception):
    """Ends a run early with the given exit kind."""

    def __init__(self, kind: ExitKind, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


class _Run:
    """One run of an external program: its pipes, buffered output and trace.

    Output is read in the calling thread by one selector loop over the raw
    stdout and stderr pipes.
    """

    def __init__(self, cfg: SubprocessConfig, proc: subprocess.Popen, values: tuple) -> None:
        self.cfg = cfg
        self.proc = proc
        self.values = values
        self.deadline = time.monotonic() + cfg.per_run_timeout_ms / 1000.0
        self.calls = _STDIN_WAITS.get(os.uname().machine)  # None: use the window
        self.selector = selectors.DefaultSelector()
        self.selector.register(proc.stdout, selectors.EVENT_READ)
        self.selector.register(proc.stderr, selectors.EVENT_READ)
        self.gaps: list[Word] = []
        self.word: list[int] = []
        self.eof = False
        self.partial = b""  # stdout bytes after the last complete line
        self.out_bytes = 0
        self.out_lines = 0
        self.stderr = bytearray()

    def until_deadline(self, wanted: float) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise _Abort(ExitKind.TIMED_OUT, "per-run timeout hit")
        return min(wanted, left)

    def pump(self, timeout: float) -> bool:
        """Wait up to `timeout` for output and take what came; True if
        stdout had any or closed, either of which restarts the probe
        back-off (after a close, the wait for exit)."""
        if timeout < 0.001:  # epoll waits whole milliseconds at least
            time.sleep(timeout)
            timeout = 0
        got = False
        for key, _ in self.selector.select(timeout):
            data = os.read(key.fd, 65536)
            if not data:
                self.selector.unregister(key.fileobj)
                if key.fileobj is self.proc.stdout:
                    got = self.eof = True
                    if self.partial:
                        self.take_line(self.partial)
            elif key.fileobj is self.proc.stdout:
                got = True
                self.take_stdout(data)
            else:
                self.stderr += data[: MAX_OUTPUT_BYTES - len(self.stderr)]
        return got

    def take_stdout(self, data: bytes) -> None:
        self.out_bytes += len(data)
        if self.out_bytes > MAX_OUTPUT_BYTES:
            raise _Abort(ExitKind.PROTOCOL_ERROR,
                         f"OutputOverflow: more than {MAX_OUTPUT_BYTES} bytes")
        *lines, self.partial = (self.partial + data).split(b"\n")
        self.out_lines += len(lines)
        if self.out_lines > MAX_OUTPUT_LINES:
            raise _Abort(ExitKind.PROTOCOL_ERROR,
                         f"OutputOverflow: more than {MAX_OUTPUT_LINES} lines")
        for line in lines:
            self.take_line(line)

    def take_line(self, line: bytes) -> None:
        text = line.decode(errors="replace").removesuffix("\r")
        if not text.strip():
            raise _Abort(ExitKind.PROTOCOL_ERROR, "UnparsableOutput: blank line")
        try:
            self.word.append(parse_decimal(text))
        except ValueError:
            raise _Abort(ExitKind.PROTOCOL_ERROR, f"UnparsableOutput: {text!r}") from None

    def waits_for_input(self) -> bool:
        """The program's turn is over: it sleeps on stdin, nothing we wrote
        is left unread and nothing it wrote is left untaken."""
        waits = _tree_waits(self.proc.pid, self.calls)
        if waits is None:
            self.calls = None
            return False
        return (waits and _unread_bytes(self.proc.stdin.fileno()) == 0
                and _unread_bytes(self.proc.stdout.fileno()) == 0)

    def exited(self) -> bool:
        """Whether the program has exited.  It is left unreaped, so its pid,
        which is also its process group's id, cannot be reused before
        `finish` has killed the group."""
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        try:
            return os.waitid(os.P_PID, self.proc.pid, flags) is not None
        except ChildProcessError:  # reaped already, as when SIGCHLD is ignored
            return True

    def await_turn(self, last: bool) -> None:
        """Take output until the program waits for input or has exited.
        After the `last` input, waiting is an input underflow; before it,
        where /proc cannot tell, a turn ends once a window passes silent."""
        wait = _PROBE_MIN_S
        quiet_since = time.monotonic()
        while not (self.eof and self.exited()):
            if self.calls is None and not last and not self.eof:  # wait for a silent window
                silent_for = quiet_since + self.cfg.quiescence_window_ms / 1000.0 - time.monotonic()
                if silent_for <= 0:
                    return
                if self.pump(self.until_deadline(silent_for)):
                    quiet_since = time.monotonic()
                continue
            got = self.pump(self.until_deadline(wait))
            if not self.eof and self.calls is not None and self.waits_for_input():
                # FIONREAD counts bytes, not a close: a stdout closed since
                # the pump above ends the interaction, not the turn
                got = self.pump(0) or got
                if not self.eof:
                    if last:
                        raise _Abort(ExitKind.PROTOCOL_ERROR,
                                     "InputUnderflow: program wants more input")
                    return
            wait = _PROBE_MIN_S if got else min(2 * wait, _PROBE_MAX_S)

    def send(self, value: int) -> bool:
        try:
            os.write(self.proc.stdin.fileno(), f"{value}\n".encode())
        except OSError:  # the program closed stdin or exited
            return False
        self.gaps.append(tuple(self.word))
        self.word.clear()
        return True

    def finish(self, kind: ExitKind, detail: str = "") -> RunOutcome:
        # The program leads its own session, so it cannot leave its process
        # group; whatever it started is killed with it, before reaping it
        # frees the group's id.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Inputs whose whole line is still in the pipe were never read: the
        # output after the last one read all falls in the final gap.
        unread = _unread_bytes(self.proc.stdin.fileno())
        read = len(self.gaps)
        while read and unread >= len(line := f"{self.values[read - 1]}\n"):
            unread -= len(line)
            read -= 1
        if not self.eof:
            self.selector.unregister(self.proc.stdout)
        drain_until = time.monotonic() + 0.25  # an escaped process may hold stderr
        while self.selector.get_map() and time.monotonic() < drain_until:
            self.pump(max(0.0, drain_until - time.monotonic()))
        self.selector.close()
        for f in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            f.close()
        code = self.proc.returncode
        if kind is ExitKind.CLEAN_HALT and code != 0:
            kind, detail = ExitKind.CRASHED, f"exit code {code}"
        final = tuple(value for gap in (*self.gaps[read:], self.word) for value in gap)
        return RunOutcome(
            Trace._of(self.values[:read], (*self.gaps[:read], final)),
            kind, detail=detail,
            exit_code=code, stderr=self.stderr.decode(errors="replace"),
        )


def run_subprocess(cfg: SubprocessConfig, inputs) -> RunOutcome:
    """Run an external program on the inputs over the line protocol.

    Inputs are written one per line, each once the program's previous turn
    is over; every stdout line is parsed as a decimal integer output.  The
    child runs in a session of its own, and when the run ends, however it
    ends, its whole process group is killed and the child reaped, so
    nothing it started outlives the run.
    """
    values = tuple(inputs)
    try:
        proc = subprocess.Popen(
            [cfg.executable, *cfg.args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            start_new_session=True,
        )
    except OSError as err:
        raise SpawnError(f"cannot start {cfg.executable!r}: {err}") from err

    run = _Run(cfg, proc, values)
    try:
        for value in values:
            run.await_turn(last=False)
            if run.eof or not run.send(value):
                break  # output or input closed: the observable interaction is over
        run.await_turn(last=True)
    except _Abort as abort:
        return run.finish(abort.kind, abort.detail)
    except BaseException:
        run.finish(ExitKind.CRASHED)  # reap the child, then propagate
        raise
    return run.finish(ExitKind.CLEAN_HALT)
