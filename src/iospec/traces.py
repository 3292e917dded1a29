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
those invariants.  Rendering decides from the factors whether a set
prints as one brace group or in product form, and builds words only when
the factors' longest words alone leave it within RENDER_LIMIT words.

Both kinds of trace are kept as their inputs and their output gaps, one
before each input and one after the last, and build their `steps` only on
demand.  A `Trace` keeps in each gap the word printed there, and a
`GeneralizedTrace` the factors of the writes run there (a compiled write
yields only its factor, a frozenset of words); either is () where nothing
is.  Covering then means that the inputs agree and that each gap can print
its word (`first_uncovered`).  `covers` reads those words off a
normalized trace; the harness hands a recorded run's own gaps to the same
check, with no normalized trace in between.  `semantics.accept` reaches
the same verdict with no generalized trace: its compiled run checks each
gap's word as it closes the gap, with a bit-parallel pass of its own over
the word that builds no factor and never calls `spells`.

The text format is read by `parser`'s token cursor, given this module's
token pattern and grammar; as in a specification, an error is reported
at the ``line:column`` worked out from its token's offset.
"""

from __future__ import annotations

import itertools
import re
from typing import Union

from .parser import _Cursor
from .syntax import _Record

# An output word: the values of a run of consecutive prints; () is the
# empty word (no output at all).
Word = tuple
EPSILON: Word = ()


class In(_Record):
    value: int

    def __str__(self) -> str:
        return f"?{self.value}"


class Out(_Record):
    value: int

    def __str__(self) -> str:
        return f"!{self.value}"


TraceStep = Union[In, Out]


class _GapTrace:
    """A frozen trace kept as its `input_values`, a tuple of ints, and its
    `gaps`, one before each input and one after the last, compared exactly;
    a subclass's `steps` builds its steps again on each access."""

    __slots__ = ("input_values", "gaps")

    def _init(self, inputs: tuple, gaps: tuple) -> None:
        object.__setattr__(self, "input_values", inputs)
        object.__setattr__(self, "gaps", gaps)

    @classmethod
    def _of(cls, inputs: tuple, gaps: tuple):
        """The trace of `inputs` and `gaps`, unchecked: the caller
        guarantees a tuple of ints and one more gaps of the class's form."""
        trace = cls.__new__(cls)
        trace._init(inputs, gaps)
        return trace

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return (type(self)._of, (self.input_values, self.gaps))

    def inputs(self) -> list[int]:
        return list(self.input_values)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.input_values == other.input_values and self.gaps == other.gaps

    def __hash__(self) -> int:
        return hash((self.input_values, self.gaps))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(steps={self.steps!r})"


class Trace(_GapTrace):
    """A finished program run; rendering appends the closing `stop`.

    Each gap is the word printed there.  ``Trace(steps)`` takes `In` and
    `Out` steps and fuses each run of outputs into one word.
    """

    __slots__ = ()

    def __init__(self, steps=()) -> None:
        inputs: list[int] = []
        gaps: list[Word] = []
        word: list[int] = []
        for step in steps:
            if isinstance(step, Out):
                word.append(step.value)
            elif isinstance(step, In):
                inputs.append(step.value)
                gaps.append(tuple(word))
                word.clear()
            else:
                raise TypeError(f"not a trace step: {step!r}")
        gaps.append(tuple(word))
        self._init(tuple(inputs), tuple(gaps))

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        steps: list[TraceStep] = []
        for word, value in zip(self.gaps, self.input_values):
            steps.extend(map(Out, word))
            steps.append(In(value))
        steps.extend(map(Out, self.gaps[-1]))
        return tuple(steps)


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
    decides it.  Callers take a single factor as it is."""
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
    is the materialized set, built on first use and kept.  Printing
    decides its form from the factors (see `_render_factors`) and builds
    words, up to RENDER_LIMIT + 1 of them, only for a set that may print
    as one group.

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


class GeneralizedTrace(_GapTrace):
    """Inputs interleaved with output word sets; never two sets in a row.

    Each gap is the tuple of factors of the output set there (see
    `OutputWordSet`), or () where the trace has none.
    ``GeneralizedTrace(steps)`` takes the steps, `In` and `OutputWordSet`
    values, and rejects two sets in a row.  Equality and hashing compare
    the inputs and each gap's language, whatever its factors.
    """

    __slots__ = ()

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneralizedTrace):
            return NotImplemented
        return self.input_values == other.input_values and (
            self.gaps == other.gaps or all(map(_same_gap, self.gaps, other.gaps))
        )

    def __hash__(self) -> int:
        return hash((self.input_values, tuple([_gap_set(g) if g else None for g in self.gaps])))


def _same_gap(a: Gap, b: Gap) -> bool:
    """Do the two gaps allow the same words?"""
    return a == b or bool(a) and bool(b) and _gap_set(a) == _gap_set(b)


def normalize(trace: Trace) -> GeneralizedTrace:
    """Embed an ordinary trace: each gap's word becomes its set's one word.

    The result has only singleton sets of non-empty words.
    """
    return GeneralizedTrace._of(
        trace.input_values,
        tuple([(frozenset((word,)),) if word else () for word in trace.gaps]),
    )


# ---------------------------------------------------------------------------
# Covering


class Covered(_Record):
    pass


class AlignmentMismatch(_Record):
    """The traces disagree structurally; `position` indexes the normalized
    trace's first step (or its end, at len) that found no counterpart."""

    expected: GenStep | None  # None stands for stop
    got: GenStep | None
    position: int


class OutputMismatch(_Record):
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
    return _cover(gt, nt.input_values, _one_words(nt))


_COVERED = Covered()


def _cover(gt: GeneralizedTrace, got: tuple, words) -> CoverageResult:
    """`covers` on a run given as its inputs `got` and the word it prints
    in each gap, one more than the inputs: on a `Trace`'s `input_values`
    and `gaps` it gives what `covers(gt, normalize(trace))` gives."""
    inputs, gaps = gt.input_values, gt.gaps
    if inputs == got:
        k = first_uncovered(gaps, words)
        return _COVERED if k is None else _mismatch(gt, got, words, k)
    # The inputs part at index `last`: compare the gaps up to it.
    last = next(
        (i for i, (a, b) in enumerate(zip(inputs, got)) if a != b),
        min(len(inputs), len(got)),
    )
    k = first_uncovered(gaps[:last + 1], words[:last + 1])
    if k is not None:
        return _mismatch(gt, got, words, k)
    position = _position(words, last) + (1 if words[last] else 0)
    return AlignmentMismatch(_input(inputs, last), _input(got, last), position)


def _input(inputs: tuple, k: int) -> In | None:
    return In(inputs[k]) if k < len(inputs) else None


def _position(words, k: int) -> int:
    """The index in the normalized trace's steps where gap `k` starts."""
    return k + sum([1 for word in words[:k] if word])


def _mismatch(gt, got: tuple, words, k: int) -> CoverageResult:
    """Why gap `k` of the run with inputs `got`, whose word is
    `words[k]`, is not covered by the same gap of `gt`."""
    gap, word = gt.gaps[k], words[k]
    position = _position(words, k)
    if gap and word:
        return OutputMismatch(word, _gap_set(gap), position)
    if gap:  # an unskippable set facing the next input or the end
        return AlignmentMismatch(_gap_set(gap), _input(got, k), position)
    return AlignmentMismatch(_input(gt.input_values, k), _gap_set((frozenset((word,)),)), position)


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
    """One brace group when the set holds at most RENDER_LIMIT words,
    else one per factor.  The factors' longest words concatenate
    one-to-one into the set's longest words, so the product of their
    counts bounds the set's size from below: past the limit, the set
    prints per factor without a word of it built."""
    if len(factors) == 1:
        return _render_group(factors[0])
    # Repeated writes give equal factors: each distinct one is looked at once.
    longest: dict[frozenset, int] = {}  # a factor's number of longest words
    bound = 1
    for factor in factors:
        count = longest.get(factor)
        if count is None:
            lengths = list(map(len, factor))
            count = longest[factor] = lengths.count(max(lengths))
        bound *= count
        if bound > RENDER_LIMIT:
            break
    else:
        words = _language(factors, RENDER_LIMIT)
        if words is not None:
            return _render_group(words)
    texts = {factor: _render_group(factor) for factor in set(factors)}
    return "".join([texts[factor] for factor in factors])


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
        for word, value in zip(trace.gaps, trace.input_values):
            for v in word:
                append(f"!{v}")
            append(f"?{value}")
        for v in trace.gaps[-1]:
            append(f"!{v}")
    append("stop")
    return " ".join(parts)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<in>\?-?[0-9]+)
    | (?P<outset>!\{)
    | (?P<out>!-?[0-9]+)
    | (?P<int>-?[0-9]+)
    | (?P<op>stop|eps|[<>,{}])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _TraceParser(_Cursor):
    pattern = _TOKEN_RE

    def stop(self) -> None:
        self.expect("stop", "expected 'stop'")
        if not self.at("eof"):
            self.fail("expected end of input after 'stop'")

    def word_set(self) -> OutputWordSet:
        """An output set: `!{...}` and any further `{...}` factors after it."""
        start = self.pos
        self.advance()
        factors = [self.factor()]
        while self.at("{"):
            self.advance()
            factors.append(self.factor())
        try:
            return OutputWordSet(*factors)
        except ValueError as err:
            self.pos = start
            self.fail(str(err))

    def factor(self) -> frozenset[Word]:
        words: set[Word] = set()
        while True:
            tok = self.here
            if tok.kind == "eps":
                words.add(EPSILON)
            elif tok.kind == "int":
                words.add((int(tok.text),))
            elif tok.kind == "<":
                self.advance()
                values = []
                while self.at("int"):
                    values.append(int(self.advance().text))
                if not self.at(">"):
                    self.fail("expected '>' closing the word")
                if not values:
                    self.fail("empty fused word")
                words.add(tuple(values))
            else:
                self.fail("expected a word")
            self.advance()
            if self.at("}"):
                self.advance()
                return frozenset(words)
            if not self.at(","):
                self.fail("expected ',' or '}'")
            self.advance()


def parse_trace(text: str) -> Trace:
    """Parse an ordinary trace such as `?2 ?5 ?3 !8 stop`."""
    parser = _TraceParser(text)
    steps: list[TraceStep] = []
    while parser.at("in", "out"):
        tok = parser.advance()
        value = int(tok.text[1:])
        steps.append(In(value) if tok.kind == "in" else Out(value))
    parser.stop()
    return Trace(steps)


def parse_generalized_trace(text: str) -> GeneralizedTrace:
    """Parse a generalized trace such as `?1 !{eps, 1} ?4 !{4} stop`,
    output sets in product form (`!{eps, 1}{eps, 1}`) included."""
    parser = _TraceParser(text)
    steps: list[GenStep] = []
    while parser.at("in", "outset"):
        if parser.at("in"):
            steps.append(In(int(parser.advance().text[1:])))
        elif steps and not isinstance(steps[-1], In):
            parser.fail("consecutive output sets must be fused")
        else:
            steps.append(parser.word_set())
    parser.stop()
    return GeneralizedTrace(steps)
