"""Program run traces, generalized traces, and the covering check.

An ordinary trace records one program run as integer input/output steps.
A generalized trace fixes the inputs but carries, at each output position,
the *set* of output words a correct program may produce there (the empty
word meaning "may print nothing"); consecutive outputs are always fused
into words, since a black-box observer cannot tell where one print ended
and the next began.

The set of back-to-back writes is the concatenation of each write's set,
which grows exponentially in the number of writes.  An `OutputWordSet`
therefore keeps the factors of that concatenation and answers membership
with a pass over them.  Hashing uses invariants of the language that the
factors give in closed form; only `words` builds the whole set, and so
does equality between differently factored sets that agree on those
invariants.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Union

from .parser import ParseError, SourceSpan

# An output word: the values of a run of consecutive prints; () is the
# empty word (no output at all).
Word = tuple
EPSILON: Word = ()


@dataclass(frozen=True)
class In:
    value: int

    def __str__(self) -> str:
        return f"?{self.value}"


@dataclass(frozen=True)
class Out:
    value: int

    def __str__(self) -> str:
        return f"!{self.value}"


TraceStep = Union[In, Out]


@dataclass(frozen=True)
class Trace:
    """A finished program run; rendering appends the closing `stop`."""

    steps: tuple[TraceStep, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def inputs(self) -> list[int]:
        return [s.value for s in self.steps if isinstance(s, In)]


def _word_key(word: Word):
    return (len(word), word)


# A set of at most this many words prints as one brace group; a larger one
# prints one brace group per factor, so its text grows linearly in the
# number of fused writes rather than with the number of words.
RENDER_LIMIT = 64


def _language(factors: tuple, limit: int | None = None) -> frozenset | None:
    """The concatenation of `factors`, or None once it holds more than
    `limit` words.  Appending a factor never shrinks the set (a fixed
    suffix maps words one-to-one), so an early prefix over the limit
    decides it."""
    if len(factors) == 1:
        return factors[0]
    words = {EPSILON}
    for factor in factors:
        words = {a + b for a in words for b in factor}
        if limit is not None and len(words) > limit:
            return None
    return frozenset(words)


class OutputWordSet:
    """Words allowed at one output position; must allow some real output.

    The set is kept as a product: a tuple of factors, each a non-empty
    frozenset of words (the empty word included), whose concatenation is
    the set.  An explicit set is one factor, ``OutputWordSet(words)``;
    ``OutputWordSet(f1, f2, ...)`` is the product of several.  Fusing k
    writes of a few values each keeps k small factors where the
    concatenated set has exponentially many words, so membership,
    `includes_epsilon` and `smallest_word` work on the factors.  `words`
    is the materialized set, built on first use and kept.

    Equality and hashing compare languages, whatever the factors.  The
    hash covers invariants every factoring of a language shares, computed
    from the factors: whether it holds the empty word, its least non-empty
    word, and its shortest and longest word lengths.  Equality is
    immediate for identical factor tuples and rejects on differing
    invariants; otherwise it compares the materialized languages, which
    in the worst case are exponentially large.  No polynomial exact test
    is to be expected: deciding whether two such products of finite
    unions denote the same language is NP-hard (Stockmeyer & Meyer, 1973).
    """

    __slots__ = ("factors", "includes_epsilon", "_words", "_hash")

    def __init__(self, *factors) -> None:
        factors = tuple([frozenset(map(tuple, f)) for f in factors])
        if not all(factors):
            raise ValueError("output word set needs non-empty factors")
        if not any(w for f in factors for w in f):
            raise ValueError("output word set needs a non-empty word")
        self._set(factors, all(EPSILON in f for f in factors))

    @classmethod
    def _one(cls, words: frozenset, includes_epsilon: bool) -> "OutputWordSet":
        """The one-factor set `words`, unchecked: the caller guarantees a
        frozenset of tuples holding a non-empty word, and `includes_epsilon`
        telling whether it holds the empty one."""
        one = cls.__new__(cls)
        one._set((words,), includes_epsilon)
        return one

    def _set(self, factors: tuple, includes_epsilon: bool) -> None:
        self.factors = factors
        self.includes_epsilon = includes_epsilon
        self._words = factors[0] if len(factors) == 1 else None
        self._hash = None

    @classmethod
    def concat(cls, sets) -> "OutputWordSet":
        """The words of `sets` written back to back, as one product."""
        if len(sets) == 1:
            return sets[0]
        fused = cls.__new__(cls)
        fused._set(
            tuple(f for s in sets for f in s.factors),
            all(s.includes_epsilon for s in sets),
        )
        return fused

    @property
    def words(self) -> frozenset[Word]:
        if self._words is None:
            self._words = _language(self.factors)
        return self._words

    def smallest_word(self) -> Word:
        """The least non-empty word, ordered by length and then by value.

        Every factor without the empty word must contribute, and at its
        least word; when every factor may be empty, the least word is one
        factor's least non-empty word with all others empty.
        """
        needed = [min(f, key=_word_key) for f in self.factors if EPSILON not in f]
        if needed:
            return tuple(itertools.chain.from_iterable(needed))
        return min((w for f in self.factors for w in f if w), key=_word_key)

    def __contains__(self, word: Word) -> bool:
        word = tuple(word)
        if len(self.factors) == 1:
            return word in self.factors[0]
        # A dynamic program over the positions of `word`, all at once: bit i
        # of `ends` is set when the factors so far can spell word[:i], and
        # bit i of at[w] when w occurs in `word` starting at position i.
        at: dict[Word, int] = {}
        ends = 1
        for factor in self.factors:
            spelled = 0
            for w in factor:
                if w not in at:
                    at[w] = sum(
                        1 << i for i in range(len(word) - len(w) + 1)
                        if word[i:i + len(w)] == w
                    )
                spelled |= (ends & at[w]) << len(w)
            ends = spelled
            if not ends:
                return False
        return bool(ends >> len(word) & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutputWordSet):
            return NotImplemented
        if self.factors == other.factors:
            return True
        # Equal languages share the hashed invariants.
        return hash(self) == hash(other) and self.words == other.words

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((
                self.includes_epsilon,
                self.smallest_word(),
                sum(min(map(len, f)) for f in self.factors),
                sum(max(map(len, f)) for f in self.factors),
            ))
        return self._hash

    def __repr__(self) -> str:
        return f"OutputWordSet({', '.join(repr(f) for f in self.factors)})"

    def __str__(self) -> str:
        if len(self.factors) == 1:
            return "!" + _render_group(self.factors[0])
        words = _language(self.factors, RENDER_LIMIT)
        groups = self.factors if words is None else (words,)
        return "!" + "".join(_render_group(g) for g in groups)


GenStep = Union[In, OutputWordSet]


@dataclass(frozen=True)
class GeneralizedTrace:
    """Inputs interleaved with output word sets; never two sets in a row."""

    steps: tuple[GenStep, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        previous_was_set = False
        for step in self.steps:
            is_set = isinstance(step, OutputWordSet)
            if is_set and previous_was_set:
                raise ValueError("consecutive output sets must be fused")
            previous_was_set = is_set

    @classmethod
    def _trusted(cls, steps: tuple) -> "GeneralizedTrace":
        """The trace of `steps`, unchecked: the caller guarantees a tuple
        that never holds two output sets in a row."""
        trace = cls.__new__(cls)
        object.__setattr__(trace, "steps", steps)
        return trace

    def inputs(self) -> list[int]:
        return [s.value for s in self.steps if isinstance(s, In)]


def normalize(trace: Trace) -> GeneralizedTrace:
    """Embed an ordinary trace: fuse each run of outputs into one word.

    The result has only singleton sets of non-empty words.
    """
    steps: list[GenStep] = []
    pending: list[int] = []

    def flush() -> None:
        if pending:
            steps.append(OutputWordSet._one(frozenset({tuple(pending)}), False))
            pending.clear()

    for step in trace.steps:
        if isinstance(step, Out):
            pending.append(step.value)
        else:
            flush()
            steps.append(step)
    flush()
    return GeneralizedTrace._trusted(tuple(steps))


# ---------------------------------------------------------------------------
# Covering


@dataclass(frozen=True)
class Covered:
    pass


@dataclass(frozen=True)
class AlignmentMismatch:
    """The traces disagree structurally; `position` indexes the normalized
    trace's first step (or its end, at len) that found no counterpart."""

    expected: GenStep | None  # None stands for stop
    got: GenStep | None
    position: int


@dataclass(frozen=True)
class OutputMismatch:
    """Both sides are outputs, but the produced word is not allowed."""

    word: Word
    allowed: OutputWordSet
    position: int


CoverageResult = Union[Covered, AlignmentMismatch, OutputMismatch]


class PreconditionViolation(Exception):
    """covers() was handed a trace outside the image of normalize()."""


def covers(gt: GeneralizedTrace, nt: GeneralizedTrace) -> CoverageResult:
    """Is the normalized run `nt` among the runs `gt` represents?

    Walks both traces left to right: inputs must agree, an output word must
    be an element of the facing word set, and a set containing the empty
    word may be skipped entirely.  Since neither side may hold two output
    steps in a row, a skippable set facing a produced word can never be
    satisfied by skipping (the word would then face an input or the end),
    so the walk needs no backtracking and the reported mismatch is the
    earliest one.  Output mismatches win over alignment mismatches when
    both readings fail at the same step.
    """
    for step in nt.steps:
        if not isinstance(step, OutputWordSet):
            continue
        # One non-empty word, checked on the factors, as a product of many
        # may hold exponentially many words: every factor holds one word
        # (factors are never empty, so their sizes sum to their count), and
        # not every factor holds only the empty one.
        factors = step.factors
        if step.includes_epsilon or (
            len(factors[0]) != 1 if len(factors) == 1
            else sum(map(len, factors)) != len(factors)
        ):
            raise PreconditionViolation(
                "left side of the covering check must come from normalize()"
            )

    i = j = 0
    while True:
        expected = gt.steps[j] if j < len(gt.steps) else None
        got = nt.steps[i] if i < len(nt.steps) else None
        if expected is None and got is None:
            return Covered()
        if isinstance(expected, OutputWordSet):
            if isinstance(got, OutputWordSet):
                word = next(iter(got.words))
                if word in expected:
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


# ---------------------------------------------------------------------------
# Text format


def _render_word(word: Word) -> str:
    if len(word) == 1:
        return str(word[0])
    if not word:
        return "eps"
    return "<" + " ".join(str(v) for v in word) + ">"


def _render_group(words: frozenset) -> str:
    """One brace group, ordered as `_word_key` orders words, so the empty
    word comes first: sorted by value, then stably by length."""
    if len(words) == 1:
        for word in words:
            return "{" + _render_word(word) + "}"
    return "{" + ", ".join([_render_word(w) for w in sorted(sorted(words), key=len)]) + "}"


def render_trace(trace: Trace | GeneralizedTrace) -> str:
    """`?v` inputs, `!v` outputs, `!{...}` output sets with `eps` for the
    empty word and `<v1 v2>` for fused multi-value words; ends in `stop`.

    An output set of more than RENDER_LIMIT words prints in product form,
    one brace group per factor: `!{eps, 3, 4}{eps, 3, 4}` is every word of
    the first group followed by any of the second.
    """
    parts = [str(step) for step in trace.steps]
    parts.append("stop")
    return " ".join(parts)


_TRACE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<in>\?-?\d+)
    | (?P<outset>!\{)
    | (?P<out>!-?\d+)
    | (?P<int>-?\d+)
    | (?P<word>stop|eps)
    | (?P<punct>[<>,{}])
    """,
    re.VERBOSE,
)


def _scan_trace(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TRACE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                SourceSpan(1, pos + 1, 1, pos + 1),
                f"unexpected character {text[pos]!r} in trace",
            )
        kind = m.lastgroup
        if kind != "ws":
            lexeme = m.group(0)
            tokens.append((kind if kind != "word" and kind != "punct" else lexeme,
                           lexeme, pos + 1))
        pos = m.end()
    tokens.append(("eof", "", pos + 1))
    return tokens


class _TraceParser:
    def __init__(self, text: str):
        self.tokens = _scan_trace(text)
        self.pos = 0

    @property
    def here(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        kind, lexeme, col = self.here
        shown = lexeme or "end of input"
        raise ParseError(SourceSpan(1, col, 1, col), f"{message}, got {shown!r}")

    def expect_stop_end(self) -> None:
        if self.here[0] != "stop":
            self.fail("expected 'stop'")
        self.advance()
        if self.here[0] != "eof":
            self.fail("expected end of input after 'stop'")

    def word_set(self) -> OutputWordSet:
        """The rest of `!{...}`, and any further `{...}` factors after it."""
        factors = [self.factor()]
        while self.here[0] == "{":
            self.advance()
            factors.append(self.factor())
        try:
            return OutputWordSet(*factors)
        except ValueError as err:
            self.fail(str(err))

    def factor(self) -> frozenset[Word]:
        words: set[Word] = set()
        while True:
            kind, lexeme, _ = self.here
            if kind == "eps":
                self.advance()
                words.add(EPSILON)
            elif kind == "int":
                self.advance()
                words.add((int(lexeme),))
            elif kind == "<":
                self.advance()
                values = []
                while self.here[0] == "int":
                    values.append(int(self.advance()[1]))
                if self.here[0] != ">":
                    self.fail("expected '>' closing the word")
                self.advance()
                if not values:
                    self.fail("empty fused word")
                words.add(tuple(values))
            else:
                self.fail("expected a word")
            if self.here[0] == ",":
                self.advance()
                continue
            if self.here[0] == "}":
                self.advance()
                return frozenset(words)
            self.fail("expected ',' or '}'")


def parse_trace(text: str) -> Trace:
    """Parse an ordinary trace such as `?2 ?5 ?3 !8 stop`."""
    parser = _TraceParser(text)
    steps: list[TraceStep] = []
    while parser.here[0] in ("in", "out"):
        kind, lexeme, _ = parser.advance()
        value = int(lexeme[1:])
        steps.append(In(value) if kind == "in" else Out(value))
    parser.expect_stop_end()
    return Trace(tuple(steps))


def parse_generalized_trace(text: str) -> GeneralizedTrace:
    """Parse a generalized trace such as `?1 !{eps, 1} ?4 !{4} stop`,
    output sets in product form (`!{eps, 1}{eps, 1}`) included."""
    parser = _TraceParser(text)
    steps: list[GenStep] = []
    while parser.here[0] in ("in", "outset"):
        kind, lexeme, _ = parser.advance()
        if kind == "in":
            steps.append(In(int(lexeme[1:])))
        else:
            steps.append(parser.word_set())
    parser.expect_stop_end()
    try:
        return GeneralizedTrace(tuple(steps))
    except ValueError as err:
        raise ParseError(SourceSpan(1, 1, 1, 1), str(err))
