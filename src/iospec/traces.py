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
with a pass over them (`spells`).  Hashing uses invariants of the language
that the factors give in closed form; only `words` builds the whole set,
and so does equality between differently factored sets that agree on
those invariants.

Both kinds of trace are checked gap by gap.  A trace has one output gap
before each input and one after the last.  A `GeneralizedTrace` is kept as
its inputs and its gaps, each the factors of the writes run there (a
compiled write yields only its factor, a frozenset of words), or () where
none ran; its `steps` are built only on demand.  `split` cuts an ordinary
trace into its inputs and the word it prints in each gap.  Covering then
means that the inputs agree and that each gap can print its word
(`first_uncovered`), which is also the check `semantics.accept` makes
after running the specification on a trace's inputs.
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
        return list(split(self)[0])


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


def spells(factors, word: Word) -> bool:
    """Is the tuple `word` in the concatenation of `factors`, a sequence
    of frozensets of words?  Never builds the concatenation."""
    if len(factors) == 1:
        return word in factors[0]
    # A dynamic program over the positions of `word`, all at once: bit i
    # of `ends` is set when the factors so far can spell word[:i].  For
    # each length of the factors' words, one slide over `word` maps every
    # piece of it of that length to the positions it starts at, as bits.
    starts: dict[int, dict[Word, int]] = {}
    ends = 1
    for factor in factors:
        spelled = 0
        for w in factor:
            size = len(w)
            if not size:  # the empty word keeps every end
                spelled |= ends
                continue
            at = starts.get(size)
            if at is None:
                at = starts[size] = {}
                for i in range(len(word) - size + 1):
                    piece = word[i:i + size]
                    at[piece] = at.get(piece, 0) | 1 << i
            spelled |= (ends & at.get(w, 0)) << size
        ends = spelled
        if not ends:
            return False
    return bool(ends >> len(word) & 1)


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
        self.factors = factors
        self.includes_epsilon = all(EPSILON in f for f in factors)
        self._words = factors[0] if len(factors) == 1 else None
        self._hash = None

    @classmethod
    def _of(cls, factors: tuple, includes_epsilon: bool) -> "OutputWordSet":
        """The product of `factors`, unchecked: the caller guarantees a
        non-empty tuple of non-empty frozensets of tuples holding a
        non-empty word, and `includes_epsilon` telling whether every
        factor holds the empty one."""
        product = cls.__new__(cls)
        product.factors = factors
        product.includes_epsilon = includes_epsilon
        product._words = factors[0] if len(factors) == 1 else None
        product._hash = None
        return product

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
        return spells(self.factors, tuple(word))

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
        return "!" + _render_factors(self.factors)


GenStep = Union[In, OutputWordSet]

# The factors of the writes run in one output gap, or () where none ran.
Gap = tuple


def _gap_set(gap: Gap) -> OutputWordSet:
    """The output set a non-empty gap allows, as a trace step."""
    return OutputWordSet._of(gap, all([EPSILON in f for f in gap]))


class GeneralizedTrace:
    """Inputs interleaved with output word sets; never two sets in a row.

    The trace is kept as its `input_values`, a tuple of ints, and its
    `gaps`: one before each input and one after the last, each the tuple
    of factors of the output set there (see `OutputWordSet`), or () where
    the trace has none.  ``GeneralizedTrace(steps)`` takes the steps, `In`
    and `OutputWordSet` values, and rejects two sets in a row; `steps`
    builds them again on each access.  Equality and hashing compare the
    inputs and each gap's language, whatever its factors.
    """

    __slots__ = ("input_values", "gaps")

    def __init__(self, steps=()) -> None:
        inputs: list[int] = []
        gaps: list[Gap] = []
        gap: Gap = ()
        for step in steps:
            if isinstance(step, In):
                inputs.append(step.value)
                gaps.append(gap)
                gap = ()
            elif isinstance(step, OutputWordSet):
                if gap:
                    raise ValueError("consecutive output sets must be fused")
                gap = step.factors
            else:
                raise TypeError(f"not a generalized trace step: {step!r}")
        gaps.append(gap)
        self._init(tuple(inputs), tuple(gaps))

    def _init(self, inputs: tuple, gaps: tuple) -> None:
        object.__setattr__(self, "input_values", inputs)
        object.__setattr__(self, "gaps", gaps)

    @classmethod
    def _of(cls, inputs: tuple, gaps: tuple) -> "GeneralizedTrace":
        """The trace of `inputs` and `gaps`, unchecked: the caller
        guarantees a tuple of ints and a tuple of one more gaps, each ()
        or a tuple of non-empty frozensets of words holding a non-empty
        word."""
        trace = cls.__new__(cls)
        trace._init(inputs, gaps)
        return trace

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return (GeneralizedTrace._of, (self.input_values, self.gaps))

    @property
    def steps(self) -> tuple[GenStep, ...]:
        steps: list[GenStep] = []
        for gap, value in zip(self.gaps, self.input_values):
            if gap:
                steps.append(_gap_set(gap))
            steps.append(In(value))
        if self.gaps[-1]:
            steps.append(_gap_set(self.gaps[-1]))
        return tuple(steps)

    def inputs(self) -> list[int]:
        return list(self.input_values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneralizedTrace):
            return NotImplemented
        return self.input_values == other.input_values and (
            self.gaps == other.gaps or all(map(_same_gap, self.gaps, other.gaps))
        )

    def __hash__(self) -> int:
        return hash((self.input_values, tuple([_gap_set(g) if g else None for g in self.gaps])))

    def __repr__(self) -> str:
        return f"GeneralizedTrace(steps={self.steps!r})"


def _same_gap(a: Gap, b: Gap) -> bool:
    """Do the two gaps allow the same words?"""
    return a == b or bool(a) and bool(b) and _gap_set(a) == _gap_set(b)


def split(trace: Trace) -> tuple[tuple[int, ...], list[Word]]:
    """The trace's inputs, and its outputs as one word per gap: the values
    printed before each input, then those printed after the last."""
    inputs: list[int] = []
    words: list[Word] = []
    word: list[int] = []
    take, close, push = inputs.append, words.append, word.append
    for step in trace.steps:
        if type(step) is Out:
            push(step.value)
        elif word:
            take(step.value)
            close(tuple(word))
            word.clear()
        else:
            take(step.value)
            close(EPSILON)
    close(tuple(word))
    return tuple(inputs), words


def normalize(trace: Trace) -> GeneralizedTrace:
    """Embed an ordinary trace: fuse each run of outputs into one word.

    The result has only singleton sets of non-empty words.
    """
    inputs, words = split(trace)
    return GeneralizedTrace._of(
        inputs, tuple([(frozenset((word,)),) if word else () for word in words])
    )


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


def first_uncovered(gaps, words) -> int | None:
    """The index of the first gap that cannot print its word, or None
    when every gap can.  A gap of writes can print the words its factors
    spell, the empty one when every factor holds it; a gap without writes
    prints only the empty word."""
    for k, (gap, word) in enumerate(zip(gaps, words)):
        if gap:
            if (word in gap[0]) if len(gap) == 1 else spells(gap, word):
                continue
        elif not word:
            continue
        return k
    return None


def _one_words(nt: GeneralizedTrace) -> list[Word]:
    """The word each gap of a normalized trace prints, () for an empty
    gap.  Checked on the factors, as a product of many may hold
    exponentially many words: a non-empty gap prints one non-empty word
    when every factor holds one word (factors are never empty, so their
    sizes sum to their count) and not every factor holds only the empty
    one."""
    words: list[Word] = []
    append = words.append
    for gap in nt.gaps:
        if not gap:
            append(EPSILON)
            continue
        if len(gap) == 1 and len(gap[0]) == 1:
            (word,) = gap[0]
        elif sum(map(len, gap)) == len(gap):
            word = tuple(itertools.chain.from_iterable([w for f in gap for w in f]))
        else:
            word = EPSILON
        if not word:
            raise PreconditionViolation(
                "left side of the covering check must come from normalize()"
            )
        append(word)
    return words


def covers(gt: GeneralizedTrace, nt: GeneralizedTrace) -> CoverageResult:
    """Is the normalized run `nt` among the runs `gt` represents?

    The inputs must agree, and the word `nt` prints in each gap must be
    one `gt` allows there: a set containing the empty word may be skipped
    entirely, and a gap without a set allows only the empty word.  Since
    neither side may hold two output sets in a row, a gap of one side
    faces exactly the same gap of the other, so the check needs no
    backtracking, and the reported mismatch is the earliest one in `nt`'s
    steps.  Output mismatches win over alignment mismatches when both
    readings fail at the same step.
    """
    words = _one_words(nt)
    inputs, got = gt.input_values, nt.input_values
    gaps = gt.gaps
    if inputs == got:
        k = first_uncovered(gaps, words)
        return Covered() if k is None else _mismatch(gt, nt, words, k)
    # The inputs part at index `last`: compare the gaps up to it.
    last = next(
        (i for i, (a, b) in enumerate(zip(inputs, got)) if a != b),
        min(len(inputs), len(got)),
    )
    k = first_uncovered(gaps[:last + 1], words[:last + 1])
    if k is not None:
        return _mismatch(gt, nt, words, k)
    position = _position(words, last) + (1 if words[last] else 0)
    return AlignmentMismatch(_input(inputs, last), _input(got, last), position)


def _input(inputs: tuple, k: int) -> In | None:
    return In(inputs[k]) if k < len(inputs) else None


def _position(words: list[Word], k: int) -> int:
    """The index in the normalized trace's steps where gap `k` starts."""
    return k + sum([1 for word in words[:k] if word])


def _mismatch(gt, nt, words: list[Word], k: int) -> CoverageResult:
    """Why gap `k` of `nt`, whose word is `words[k]`, is not covered by
    the same gap of `gt`."""
    gap, word = gt.gaps[k], words[k]
    position = _position(words, k)
    if gap and word:
        return OutputMismatch(word, _gap_set(gap), position)
    if gap:  # an unskippable set facing the next input or the end
        return AlignmentMismatch(_gap_set(gap), _input(nt.input_values, k), position)
    return AlignmentMismatch(_input(gt.input_values, k), _gap_set(nt.gaps[k]), position)


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
    if len(words) == 2:
        a, b = words
        if len(a) > len(b) or len(a) == len(b) and a > b:
            a, b = b, a
        return f"{{{_render_word(a)}, {_render_word(b)}}}"
    return "{" + ", ".join([_render_word(w) for w in sorted(sorted(words), key=len)]) + "}"


def _render_factors(factors: tuple) -> str:
    if len(factors) == 1:
        return _render_group(factors[0])
    words = _language(factors, RENDER_LIMIT)
    return "".join([_render_group(g) for g in (factors if words is None else (words,))])


def render_trace(trace: Trace | GeneralizedTrace) -> str:
    """`?v` inputs, `!v` outputs, `!{...}` output sets with `eps` for the
    empty word and `<v1 v2>` for fused multi-value words; ends in `stop`.

    An output set of more than RENDER_LIMIT words prints in product form,
    one brace group per factor: `!{eps, 3, 4}{eps, 3, 4}` is every word of
    the first group followed by any of the second.
    """
    parts = []
    append = parts.append
    if isinstance(trace, GeneralizedTrace):
        inputs: dict[int, str] = {}  # each input's text, rendered once
        gaps = iter(trace.gaps)
        for value, gap in zip(trace.input_values, gaps):
            if gap:
                append("!" + (_render_group(gap[0]) if len(gap) == 1 else _render_factors(gap)))
            text = inputs.get(value)
            if text is None:
                text = inputs[value] = f"?{value}"
            append(text)
        gap = next(gaps)
        if gap:
            append("!" + _render_factors(gap))
    else:
        for step in trace.steps:
            append(str(step))
    append("stop")
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
