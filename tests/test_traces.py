import copy
import pickle
import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from iospec import (
    AlignmentMismatch,
    Covered,
    GeneralizedTrace,
    In,
    Out,
    OutputMismatch,
    OutputWordSet,
    ParseError,
    PreconditionViolation,
    SamplingPolicy,
    Trace,
    covers,
    interpret,
    normalize,
    parse_generalized_trace,
    parse_spec,
    parse_trace,
    render_trace,
    sample_generalized_trace,
)
from iospec import traces
from iospec.traces import RENDER_LIMIT, _cover, spells

import oracle
from oracle import BoundExceededError, concretize
from randgen import concretization_as_trace, mutate_trace, random_generalized_trace, random_spec


def ows(*words) -> OutputWordSet:
    return OutputWordSet(frozenset(words))


def normalize_oracle(steps, accumulated=()):
    """Literal recursive transcription of the output-fusing embedding,
    independent of the production implementation."""
    if not steps:
        return [ows(accumulated)] if accumulated != () else []
    head, rest = steps[0], steps[1:]
    if isinstance(head, Out):
        return normalize_oracle(rest, accumulated + (head.value,))
    prefix = [ows(accumulated)] if accumulated != () else []
    return prefix + [head] + normalize_oracle(rest, ())


trace_steps = st.lists(
    st.one_of(
        st.builds(In, st.integers(min_value=-20, max_value=20)),
        st.builds(Out, st.integers(min_value=-20, max_value=20)),
    ),
    max_size=12,
)


class TestNormalize:
    def test_consecutive_outputs_fuse(self):
        t = Trace((In(1), Out(2), Out(3)))
        assert normalize(t) == GeneralizedTrace((In(1), ows((2, 3))))

    def test_empty(self):
        assert normalize(Trace(())) == GeneralizedTrace(())

    def test_golden_run(self):
        t = parse_trace("?2 ?5 ?3 !8 stop")
        assert normalize(t) == GeneralizedTrace((In(2), In(5), In(3), ows((8,))))

    @given(trace_steps)
    def test_matches_the_recursive_definition(self, steps):
        assert list(normalize(Trace(tuple(steps))).steps) == normalize_oracle(
            tuple(steps)
        )

    @given(trace_steps)
    def test_image_shape(self, steps):
        result = normalize(Trace(tuple(steps)))
        previous_was_set = False
        for step in result.steps:
            if isinstance(step, OutputWordSet):
                assert not previous_was_set
                assert len(step.words) == 1
                assert () not in step.words
                previous_was_set = True
            else:
                previous_was_set = False

    @given(trace_steps, st.data())
    def test_invariant_under_regrouping(self, steps, data):
        # splitting the step list anywhere and normalizing the whole is the
        # same as normalizing the concatenation
        t = Trace(tuple(steps))
        cut = data.draw(st.integers(min_value=0, max_value=len(steps)))
        glued = Trace(tuple(steps[:cut]) + tuple(steps[cut:]))
        assert normalize(glued) == normalize(t)


class TestCovers:
    def test_covered_reflexive(self):
        rng = random.Random(7)
        for _ in range(50):
            t = Trace(
                tuple(
                    rng.choice([In, Out])(rng.randint(-5, 5))
                    for _ in range(rng.randint(0, 8))
                )
            )
            assert covers(normalize(t), normalize(t)) == Covered()

    def test_output_mismatch_with_skippable_set(self):
        gt = GeneralizedTrace((
            In(3), ows((), (3,)), In(-1), ows((), (2,)),
            In(7), ows((), (1,)), In(4), ows((10,)),
        ))
        nt = normalize(parse_trace("?3 !4 ?-1 !2 ?7 !1 ?4 !10 stop"))
        result = covers(gt, nt)
        assert result == OutputMismatch((4,), ows((), (3,)), 1)

    def test_alignment_mismatch_missing_input(self):
        gt = GeneralizedTrace((
            In(7), In(2), In(9), In(1), In(-5), In(1), In(7), In(1), ows((16,)),
        ))
        nt = normalize(parse_trace("?7 ?2 ?9 ?1 ?-5 ?1 ?7 !15 stop"))
        result = covers(gt, nt)
        assert result == AlignmentMismatch(In(1), ows((15,)), 7)

    def test_output_mismatch_plain(self):
        gt = GeneralizedTrace((In(3), In(-2), In(0), In(6), ows((4,))))
        nt = normalize(parse_trace("?3 ?-2 ?0 ?6 !-2 stop"))
        assert covers(gt, nt) == OutputMismatch((-2,), ows((4,)), 4)

    def test_skippable_trailing_set(self):
        gt = GeneralizedTrace((In(1), ows((), (1,))))
        assert covers(gt, normalize(parse_trace("?1 stop"))) == Covered()
        assert covers(gt, normalize(parse_trace("?1 !1 stop"))) == Covered()

    def test_unskippable_set_facing_stop(self):
        gt = GeneralizedTrace((In(1), ows((1,))))
        result = covers(gt, normalize(parse_trace("?1 stop")))
        assert result == AlignmentMismatch(ows((1,)), None, 1)

    def test_input_value_disagreement(self):
        gt = GeneralizedTrace((In(1),))
        result = covers(gt, normalize(parse_trace("?2 stop")))
        assert result == AlignmentMismatch(In(1), In(2), 0)

    def test_surplus_program_steps(self):
        gt = GeneralizedTrace((In(1),))
        result = covers(gt, normalize(parse_trace("?1 !9 stop")))
        assert result == AlignmentMismatch(None, ows((9,)), 1)

    def test_precondition_rejects_unnormalized_left_side(self):
        gt = GeneralizedTrace((ows((1,)),))
        with pytest.raises(PreconditionViolation):
            covers(gt, GeneralizedTrace((ows((1,), (2,)),)))
        with pytest.raises(PreconditionViolation):
            covers(gt, GeneralizedTrace((ows((), (1,)),)))

    def test_precondition_is_checked_on_the_factors(self):
        # 40 fused `write { eps, x_C, x_C + 1 }` at x = 3: 2^41 - 1 words
        gt = GeneralizedTrace((In(3), OutputWordSet(*[{(), (3,), (4,)}] * 40)))
        start = time.perf_counter()
        with pytest.raises(PreconditionViolation):
            covers(gt, gt)
        assert time.perf_counter() - start < 1.0
        # an empty-word factor next to a real word still makes one word
        one_word = GeneralizedTrace((In(3), OutputWordSet({()}, {(3,)})))
        assert covers(gt, one_word) == Covered()

    def test_product_of_single_words_is_one_word(self):
        fused = parse_generalized_trace("?1 !{1}{2} stop")
        assert covers(parse_generalized_trace("?1 !{<1 2>} stop"), fused) == Covered()
        assert covers(parse_generalized_trace("?1 !{<1 3>} stop"), fused) == (
            OutputMismatch((1, 2), ows((1, 3)), 1)
        )

    def test_skip_soundness(self):
        # inserting a skippable set anywhere legal keeps covered traces covered
        rng = random.Random(40)
        for _ in range(100):
            gt = random_generalized_trace(rng)
            nt = normalize(concretization_as_trace(rng, gt))
            assert covers(gt, nt) == Covered()
            slot = rng.randint(0, len(gt.steps))
            padded = (
                gt.steps[:slot]
                + (ows((), (99,)),)
                + gt.steps[slot:]
            )
            try:
                padded_gt = GeneralizedTrace(padded)
            except ValueError:
                continue  # landed next to another set; not a legal position
            assert covers(padded_gt, nt) == Covered()


def truncate_trace(rng: random.Random, trace: Trace) -> Trace:
    """The trace cut short at a random step."""
    return Trace(trace.steps[:rng.randint(0, len(trace.steps))])


def outcome(check, *args):
    """What `check` returns, or the type of the exception it raises."""
    try:
        return check(*args)
    except Exception as err:
        return type(err)


class TestGapsAgainstTheStepWalk:
    """`covers` compares the inputs and then each output gap; the oracle
    walks both traces' steps.  Both must give the same whole result."""

    @given(st.integers(0, 2**32 - 1))
    def test_covers_matches_the_step_walk(self, seed):
        rng = random.Random(seed)
        gt = random_generalized_trace(rng)
        run = concretization_as_trace(rng, gt)
        other = random_generalized_trace(rng)
        candidates = [
            run,
            mutate_trace(rng, run, rounds=rng.randint(1, 3)),
            truncate_trace(rng, run),
            concretization_as_trace(rng, other),
        ]
        for trace in candidates:
            nt = normalize(trace)
            for left in (gt, other):
                assert covers(left, nt) == oracle.covers(left, nt), (
                    render_trace(left), render_trace(trace))
        # a generalized trace that is not normalized breaks the precondition
        # the same way on both sides
        assert outcome(covers, other, gt) == outcome(oracle.covers, other, gt)

    def test_mismatch_fields_are_the_step_walks(self):
        gt = parse_generalized_trace("?1 !{eps, 1} ?2 !{2}{eps, 3} ?4 stop")
        for text in ["?1 ?2 !2 ?4 stop", "?1 !1 ?2 !2 !3 ?4 stop", "?1 !2 ?2 !2 ?4 stop",
                     "?1 ?2 ?4 stop", "?1 !1 ?2 !2 !4 ?4 stop", "?1 ?2 !2 ?5 stop",
                     "?1 ?2 !2 stop", "?1 ?2 !2 ?4 ?4 stop", "?1 ?2 !2 ?4 !0 stop",
                     "?1 !1 ?3 stop", "!7 ?1 stop", "stop"]:
            trace = parse_trace(text)
            nt = normalize(trace)
            assert covers(gt, nt) == oracle.covers(gt, nt), text
            assert _cover(gt, trace.input_values, trace.gaps) == covers(gt, nt), text


def with_inputs(trace: Trace, inputs: list) -> Trace:
    """The trace with `inputs` in place of its own: gap k keeps the
    trace's word k, the words past the last input fuse into the final
    gap, and gaps the trace lacks are empty."""
    gaps = list(trace.gaps[:len(inputs)])
    gaps += [()] * (len(inputs) - len(gaps))
    tail = [v for gap in trace.gaps[len(inputs):] for v in gap]
    return Trace._of(tuple(inputs), (*gaps, tuple(tail)))


class TestCoverOnRunGaps:
    """The harness checks a run's own gaps with `_cover`; that must give
    the result `covers` gives on the normalized run.  Results compare
    field by field, so a mismatch must agree in its steps or word, its
    allowed set and its `position`."""

    @given(st.integers(0, 2**32 - 1))
    def test_cover_on_gaps_is_covers_on_the_normalized_run(self, seed):
        rng = random.Random(seed)
        spec = random_spec(rng, depth=3)
        gt = sample_generalized_trace(spec, policy=SamplingPolicy(seed=rng.getrandbits(32)))
        run = concretization_as_trace(rng, gt)
        inputs = list(run.input_values)
        changed, missing, surplus = list(inputs), list(inputs), list(inputs)
        if inputs:
            changed[rng.randrange(len(inputs))] += rng.choice([-1, 1, 7])
            del missing[rng.randrange(len(inputs))]
        surplus.insert(rng.randint(0, len(inputs)), rng.randint(-5, 5))
        candidates = [
            run,
            mutate_trace(rng, run, rounds=rng.randint(1, 3)),
            with_inputs(run, changed),
            with_inputs(run, missing),
            with_inputs(run, surplus),
            with_inputs(run, inputs[:-1]),
            with_inputs(run, inputs + [0]),
        ]
        for trace in candidates:
            expected = covers(gt, normalize(trace))
            got = _cover(gt, trace.input_values, trace.gaps)
            assert got == expected, (render_trace(gt), render_trace(trace))


class TestConcretize:
    def test_optional_output(self):
        gt = GeneralizedTrace((In(5), ows((), (5,))))
        assert concretize(gt) == {
            GeneralizedTrace((In(5),)),
            GeneralizedTrace((In(5), ows((5,)))),
        }

    def test_empty_trace(self):
        assert concretize(GeneralizedTrace(())) == {GeneralizedTrace(())}

    def test_fused_word_set(self):
        gt = GeneralizedTrace((In(5), ows((), (5,), (5, 5))))
        assert concretize(gt) == {
            GeneralizedTrace((In(5),)),
            GeneralizedTrace((In(5), ows((5,)))),
            GeneralizedTrace((In(5), ows((5, 5)))),
        }

    def test_bound(self):
        gt = GeneralizedTrace((In(0), ows((), (1,), (2,), (3,))))
        with pytest.raises(BoundExceededError):
            concretize(gt, bound=3)
        assert len(concretize(gt, bound=4)) == 4

    def test_bound_is_checked_before_materializing(self):
        # 20 fused `write { eps, x_C, x_C + 1 }` at x = 3: 2^21 - 1 words
        factor = frozenset({(), (3,), (4,)})
        gt = GeneralizedTrace((In(3), OutputWordSet(*[factor] * 20)))
        start = time.perf_counter()
        with pytest.raises(BoundExceededError):
            concretize(gt, bound=10)
        assert time.perf_counter() - start < 1.0

    def test_agrees_with_covers(self):
        rng = random.Random(4242)
        for _ in range(150):
            gt = random_generalized_trace(rng)
            all_runs = concretize(gt, bound=64)
            for run in all_runs:
                assert covers(gt, run) == Covered()
            base = concretization_as_trace(rng, gt)
            for _ in range(5):
                mutated = normalize(mutate_trace(rng, base))
                expected = mutated in all_runs
                assert (covers(gt, mutated) == Covered()) == expected


class TestGeneralizedTrace:
    def test_steps_round_trip(self):
        rng = random.Random(31)
        for _ in range(200):
            steps = random_generalized_trace(rng).steps
            gt = GeneralizedTrace(steps)
            assert gt.steps == steps
            assert GeneralizedTrace(gt.steps) == gt
            assert gt.inputs() == [s.value for s in steps if isinstance(s, In)]
            assert len(gt.gaps) == len(gt.input_values) + 1

    def test_equality_and_hash_compare_languages(self):
        one = GeneralizedTrace((In(1), OutputWordSet({(), (1,)}, {(2,)}), In(2)))
        same = GeneralizedTrace((In(1), ows((2,), (1, 2)), In(2)))
        assert one.gaps != same.gaps
        assert one == same and hash(one) == hash(same)
        assert {one, same} == {one}
        for different in [
            GeneralizedTrace((In(1), ows((2,)), In(2))),
            GeneralizedTrace((In(1), In(2))),
            GeneralizedTrace((In(1), ows((2,), (1, 2)), In(3))),
            GeneralizedTrace((In(1), ows((2,), (1, 2)), In(2), ows((2,)))),
            GeneralizedTrace((ows((2,), (1, 2)), In(1), In(2))),
        ]:
            assert one != different and different != one
        assert one != one.steps
        assert (OutputWordSet({(1,)}) == 1) is False

    def test_frozen_and_checked(self):
        gt = GeneralizedTrace((In(1),))
        with pytest.raises(AttributeError):
            gt.gaps = ()
        with pytest.raises(TypeError):
            GeneralizedTrace((In(1), Out(1)))
        assert pickle.loads(pickle.dumps(gt)) == gt
        assert GeneralizedTrace() == GeneralizedTrace(()) == normalize(Trace())

    def test_consecutive_sets_are_rejected(self):
        s = ows((1,))
        with pytest.raises(ValueError):
            GeneralizedTrace((s, s))
        with pytest.raises(ValueError):
            GeneralizedTrace((In(1), s, ows((), (2,)), In(2)))
        with pytest.raises(ParseError):
            parse_generalized_trace("?1 !{1} !{2} stop")


class TestTrace:
    def test_kept_as_inputs_and_gap_words(self):
        t = parse_trace("!3 ?1 !2 !4 ?5 stop")
        assert t.input_values == (1, 5)
        assert t.gaps == ((3,), (2, 4), ())
        assert repr(t) == (
            "Trace(steps=(Out(value=3), In(value=1), Out(value=2), Out(value=4), In(value=5)))"
        )

    def test_copies_keep_equality_and_hash(self):
        t = parse_trace("!3 ?1 !2 !4 ?5 stop")
        for twin in [pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)]:
            assert type(twin) is Trace
            assert twin == t and hash(twin) == hash(t)
        assert t != normalize(t) and t != t.steps

    def test_frozen_and_checked(self):
        t = Trace((In(1), Out(2)))
        with pytest.raises(AttributeError):
            t.gaps = ()
        with pytest.raises(AttributeError):
            t.input_values = (2,)
        with pytest.raises(TypeError):
            Trace(("x",))
        with pytest.raises(TypeError):
            Trace((In(1), ows((1,))))


class TestTextFormat:
    def test_render_ordinary(self):
        t = Trace((In(2), In(5), In(3), Out(8)))
        assert render_trace(t) == "?2 ?5 ?3 !8 stop"

    def test_render_empty(self):
        assert render_trace(Trace(())) == "stop"
        assert parse_trace("stop") == Trace(())

    def test_render_generalized(self):
        gt = GeneralizedTrace((In(3), ows((), (3,))))
        assert render_trace(gt) == "?3 !{eps, 3} stop"

    def test_render_fused_words(self):
        gt = GeneralizedTrace((In(1), ows((), (1,), (1, 1))))
        assert render_trace(gt) == "?1 !{eps, 1, <1 1>} stop"

    def test_render_one_factor_sets(self):
        # the empty word first, then by length and value
        gt = GeneralizedTrace((In(3), ows((3,), (-1,), ())))
        assert render_trace(gt) == "?3 !{eps, -1, 3} stop"
        gt = GeneralizedTrace((In(-2), ows((-3, -4), (4,), (-12,), (-3,))))
        assert render_trace(gt) == "?-2 !{-12, -3, 4, <-3 -4>} stop"
        gt = GeneralizedTrace((ows((1, 2), (), (-1, 0, 5), (7,)), In(0)))
        assert render_trace(gt) == "!{eps, 7, <1 2>, <-1 0 5>} ?0 stop"
        assert render_trace(GeneralizedTrace((In(0), ows((5,))))) == "?0 !{5} stop"
        # one factor prints as one group, however many words it holds
        wide = OutputWordSet(frozenset((v,) for v in range(80, -1, -1)))
        assert str(wide) == "!{" + ", ".join(map(str, range(81))) + "}"

    def test_render_two_word_groups(self):
        # either order of a pair renders as `_word_key` orders it
        for pair, text in [
            (((), (-1,)), "{eps, -1}"),
            (((-1,), (3,)), "{-1, 3}"),
            (((7,), (1, 2)), "{7, <1 2>}"),
            (((5,), (-3, -4)), "{5, <-3 -4>}"),
        ]:
            for words in (pair, pair[::-1]):
                assert render_trace(GeneralizedTrace((In(3), ows(*words)))) == (
                    f"?3 !{text} stop")
        gt = GeneralizedTrace((ows((1, 2), (7,)), In(-1), In(-1), ows((-1,), ()), In(3)))
        assert render_trace(gt) == "!{7, <1 2>} ?-1 ?-1 !{eps, -1} ?3 stop"

    def test_render_products_around_the_limit(self):
        def product(n):
            return OutputWordSet(
                frozenset((a,) for a in range(n)),
                frozenset((b,) for b in range(-8, 8) if n == 4 or abs(b) < 7),
            )

        assert len(product(4).words) == RENDER_LIMIT
        assert str(product(4)) == "!{" + ", ".join(
            f"<{a} {b}>" for a in range(4) for b in range(-8, 8)) + "}"
        assert len(product(5).words) == RENDER_LIMIT + 1
        assert str(product(5)) == (
            "!{0, 1, 2, 3, 4}{" + ", ".join(map(str, range(-6, 7))) + "}")
        assert str(OutputWordSet({(1,)}, {()}, {(), (2,)})) == "!{1, <1 2>}"

    def test_parse_ordinary(self):
        assert parse_trace("?2 ?5 ?3 !8 stop") == Trace(
            (In(2), In(5), In(3), Out(8))
        )
        assert parse_trace("?-5 !-3 stop") == Trace((In(-5), Out(-3)))

    def test_parse_generalized(self):
        text = "?1 !{eps, 1, <1 2>} stop"
        gt = parse_generalized_trace(text)
        assert gt == GeneralizedTrace((In(1), ows((), (1,), (1, 2))))
        assert render_trace(gt) == text

    def test_parse_errors(self):
        for bad in ["?1", "?1 stop extra", "!{} stop", "!{eps} stop", "?x stop",
                    "!\u0667 stop", "?1_0 stop", "?1 !{\u0667} stop"]:
            with pytest.raises(ParseError):
                parse_trace(bad) if "{" not in bad else parse_generalized_trace(bad)

    @pytest.mark.parametrize("parse, text, position, message", [
        (parse_trace, "?1\n!1\n?5\n!x\nstop", (4, 1), "unexpected character '!'"),
        (parse_trace, "?1 !1\n  ?5 !5\n\tstop stop", (3, 7),
         "expected end of input after 'stop', got 'stop'"),
        (parse_generalized_trace, "?1\n!{eps, 1}\n?2 !{<1\n 2>, stop} stop", (4, 6),
         "expected a word, got 'stop'"),
        # two sets in a row: the second one's `!{`
        (parse_generalized_trace, "?1\n!{1} ?2\n   !{2}\n!{3} stop", (4, 1),
         "consecutive output sets must be fused, got '!{'"),
        (parse_generalized_trace, "?1 !{1} !{2} stop", (1, 9),
         "consecutive output sets must be fused, got '!{'"),
        # a product without a real word: its own `!{`, not the next line's `stop`
        (parse_generalized_trace, "?1\n?2 !{eps}{eps}\nstop", (2, 4),
         "output word set needs a non-empty word, got '!{'"),
        (parse_generalized_trace, "?1 !{<1 2} stop", (1, 10),
         "expected '>' closing the word, got '}'"),
        (parse_generalized_trace, "?1 !{<> } stop", (1, 7), "empty fused word, got '>'"),
        (parse_generalized_trace, "?1 !{1 2} stop", (1, 8), "expected ',' or '}', got '2'"),
    ], ids=["bad-character", "after-stop", "in-a-word", "sets-in-a-row-over-lines",
            "sets-in-a-row", "all-eps-product", "unclosed-word", "empty-fused-word",
            "no-comma"])
    def test_errors_give_line_and_column(self, parse, text, position, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        span = exc.value.span
        assert (span.start_line, span.start_column) == position
        assert span.end_line == span.start_line
        assert str(exc.value) == f"{span}: {message}"

    @given(trace_steps, st.randoms(use_true_random=False))
    def test_ordinary_round_trip(self, steps, rng):
        t = Trace(tuple(steps))
        assert parse_trace(render_trace(t)) == t
        assert parse_trace(respaced(render_trace(t), rng)) == t
        assert t.steps == tuple(steps) and Trace(t.steps) == t

    def test_generalized_round_trip(self):
        rng = random.Random(88)
        for _ in range(200):
            gt = random_generalized_trace(rng)
            assert parse_generalized_trace(render_trace(gt)) == gt
            assert parse_generalized_trace(respaced(render_trace(gt), rng)) == gt


_TRACE_TOKEN = re.compile(r"!\{|[?!]?-?[0-9]+|stop|eps|[<>,{}]")


def respaced(text: str, rng) -> str:
    """`text` with a random run of spaces, tabs and newlines around each
    of its tokens."""
    tokens = _TRACE_TOKEN.findall(text)
    assert "".join(tokens) == "".join(text.split())
    return "".join(
        "".join(rng.choice(" \t\n") for _ in range(rng.randint(1, 3))) + tok
        for tok in tokens
    )


# A factor: a few words of up to two values from a small range, so that
# different factor lists often spell the same word.
factors = st.frozensets(
    st.one_of(
        st.just(()),
        st.lists(st.integers(-1, 1), min_size=1, max_size=2).map(tuple),
    ),
    min_size=1,
    max_size=3,
)
factor_lists = st.lists(factors, min_size=1, max_size=8).filter(
    lambda fs: any(w for f in fs for w in f)
)
candidate_words = st.lists(st.integers(-2, 2), max_size=6).map(tuple)


def materialized(fs) -> frozenset:
    # the concatenation, spelled out
    words = {()}
    for f in fs:
        words = {a + b for a in words for b in f}
    return frozenset(words)


def _runs_within(runs, cap=4096):
    """The factors of (factor, repeats) `runs`, each repeat an equal copy,
    cut where the product of the factor sizes would pass `cap`, so that
    the language stays cheap to build."""
    fs, size = [], 1
    for factor, repeats in runs:
        for _ in range(repeats):
            size *= len(factor)
            if size > cap:
                return fs
            fs.append(frozenset(set(factor)))
    return fs


# Runs of equal factors whose words have mixed lengths, with languages
# from a handful of words to far past RENDER_LIMIT.
factor_runs = st.lists(
    st.tuples(
        st.frozensets(
            st.lists(st.integers(-2, 2), max_size=3).map(tuple), min_size=1, max_size=4),
        st.integers(1, 7),
    ),
    min_size=1,
    max_size=6,
).map(_runs_within).filter(lambda fs: any(w for f in fs for w in f))


def reference_text(fs) -> str:
    """The printed form of the product of `fs`, from its built language:
    one group of every word, by length and then by value, when it has at
    most RENDER_LIMIT words, and otherwise one group per factor."""
    def word_text(word):
        if not word:
            return "eps"
        if len(word) == 1:
            return str(word[0])
        return "<" + " ".join(map(str, word)) + ">"

    words = materialized(fs)
    groups = [words] if len(words) <= RENDER_LIMIT else fs
    return "!" + "".join(
        "{" + ", ".join(word_text(w) for w in sorted(g, key=lambda w: (len(w), w))) + "}"
        for g in groups
    )


class TestLazySets:
    @given(factor_lists, st.lists(candidate_words, max_size=10))
    def test_factors_agree_with_the_materialized_set(self, fs, probes):
        lazy = OutputWordSet(*fs)
        words = materialized(fs)
        assert lazy.words == words
        for word in list(words) + probes:
            assert (word in lazy) == (word in words)
            assert spells(lazy.factors, word) == (word in words)
        assert lazy.includes_epsilon == (() in words)
        assert lazy.smallest_word() == min(
            words - {()}, key=lambda w: (len(w), w)
        )
        explicit = OutputWordSet(words)
        assert lazy == explicit and hash(lazy) == hash(explicit)
        if len(words) <= RENDER_LIMIT:
            assert str(lazy) == str(explicit)
        else:
            assert str(lazy).count("{") == len(fs)
        assert parse_generalized_trace(f"{lazy} stop") == GeneralizedTrace((lazy,))

    @given(factor_runs)
    def test_render_equals_the_reference(self, fs):
        assert str(OutputWordSet(*fs)) == reference_text(fs)

    def test_render_either_side_of_the_longest_words_bound(self):
        digits = frozenset({(), (1,), (2,)})
        # 2^6 longest words, within the limit, but 127 words in all
        assert str(OutputWordSet(*[digits] * 6)) == "!" + "{eps, 1, 2}" * 6
        # 2^7 longest words: product form without building a word
        assert str(OutputWordSet(*[digits] * 7)) == "!" + "{eps, 1, 2}" * 7
        # one longest word, and 15 words in all: one group
        ones = OutputWordSet(*[frozenset({(), (1,)})] * 14)
        assert str(ones) == "!{eps, 1, " + ", ".join(
            "<" + " ".join(["1"] * n) + ">" for n in range(2, 15)) + "}"
        # hash(-1) == hash(-2): the words of x = -2 would all collide
        colliding = [frozenset({(), (-2,), (-1,)}) for _ in range(12)]
        assert str(OutputWordSet(*colliding)) == "!" + "{eps, -2, -1}" * 12

    def test_hashing_a_wide_set_stays_fast(self):
        factor = frozenset({(), (3,), (4,)})
        start = time.perf_counter()
        gt = GeneralizedTrace((In(3), OutputWordSet(*[factor] * 40)))
        hash(gt)
        # differently factored, and told apart by the hashed invariants
        assert OutputWordSet(*[factor] * 40) != OutputWordSet(*[factor] * 39)
        assert OutputWordSet(*[factor] * 40) != OutputWordSet(*[factor] * 39, {(3,)})
        assert time.perf_counter() - start < 1.0

    def test_same_factors_compare_without_a_language(self, monkeypatch):
        # interpret's one-value writes give tuple factors and the parser
        # frozensets; the gap's 2^40 words are never built to compare them
        spec = parse_spec("".join(f"write {{ eps, {k} }}\n" for k in range(40)))
        gt = interpret(spec, [])
        parsed = parse_generalized_trace(render_trace(gt))
        assert gt.gaps != parsed.gaps

        def no_language(*args):
            raise AssertionError("built a language")

        monkeypatch.setattr(traces, "_language", no_language)
        assert gt == parsed and parsed == gt
        assert hash(gt) == hash(parsed)
        (allowed,) = gt.steps
        (parsed_allowed,) = parsed.steps
        assert allowed == parsed_allowed and parsed_allowed == allowed
        twin = pickle.loads(pickle.dumps(gt))
        assert twin.gaps == gt.gaps and twin == gt and hash(twin) == hash(gt)

    def test_pickle_holds_only_the_fields(self):
        allowed = OutputWordSet(*[frozenset({(), (1,), (2,)})] * 8)
        size = len(pickle.dumps(allowed))
        assert len(allowed.words) == 2**9 - 1 and hash(allowed)  # words over {1, 2} of length <= 8
        assert len(pickle.dumps(allowed)) == size
        twin = pickle.loads(pickle.dumps(allowed))
        assert set(vars(twin)) == {"factors"}
        assert twin == allowed and hash(twin) == hash(allowed)

    def test_needs_a_real_word(self):
        with pytest.raises(ValueError):
            OutputWordSet(frozenset({()}), frozenset({()}))
        with pytest.raises(ValueError):
            OutputWordSet(frozenset({(1,)}), frozenset())

    def test_large_set_prints_in_product_form(self):
        factor = frozenset({(), (3,), (4,)})
        gt = GeneralizedTrace((In(3), OutputWordSet(*[factor] * 20)))
        text = render_trace(gt)
        assert text == "?3 !" + "{eps, 3, 4}" * 20 + " stop"
        assert parse_generalized_trace(text) == gt

    def test_parse_product_form(self):
        gt = parse_generalized_trace("?1 !{eps, 1}{<2 3>} stop")
        assert gt == GeneralizedTrace((In(1), ows((2, 3), (1, 2, 3))))
        # a small set prints as one brace group, whatever its factors
        assert render_trace(gt) == "?1 !{<2 3>, <1 2 3>} stop"
        with pytest.raises(ParseError):
            parse_generalized_trace("?1 !{eps}{eps} stop")
