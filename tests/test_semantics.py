import copy
import gc
import itertools
import os
import pickle
import random
import re
import runpy
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from iospec import (
    AllVar,
    Apply,
    Branch,
    Covered,
    CurrentVar,
    DEFAULT_REGISTRY,
    EvalError,
    FunctionSpec,
    In,
    Out,
    EMPTY,
    ExplicitSet,
    Exit,
    GeneralizedTrace,
    GenerationFailureError,
    GenerationLimits,
    InputRejectedError,
    InputsExhaustedError,
    IntConst,
    InterpretError,
    Integers,
    LimitExceededError,
    Naturals,
    OutputWordSet,
    ReadInput,
    SamplingPolicy,
    Sort,
    Spec,
    SurplusInputsError,
    TillExit,
    Trace,
    UnboundCurrentError,
    ViolationKind,
    WriteOutput,
    accept,
    covers,
    interpret,
    normalize,
    normalize_spec,
    parse_generalized_trace,
    parse_spec,
    parse_trace,
    render_spec,
    render_trace,
    sample_generalized_trace,
    well_formed,
)

from iospec import semantics
from iospec.parser import MAX_NESTING
from iospec.semantics import SpecStructureError
from iospec.traces import _cover

import oracle
import smallspecs
from conftest import DATA_DIR, STUCK_SPEC, SUM_SPEC_TEXT
from randgen import concretization_as_trace, mutate_trace, random_spec

ALWAYS = Apply("==", (IntConst(0), IntConst(0)))


class TestAccept:
    """Golden verdicts of the library `accept`; TestOracleAccept reruns
    them against the backtracking oracle."""

    accept = staticmethod(accept)

    def test_golden_valid_run(self, sum_spec):
        assert self.accept(sum_spec, parse_trace("?2 ?5 ?3 !8 stop")) is True

    def test_empty_spec_accepts_only_stop(self):
        assert self.accept(EMPTY, Trace(())) is True
        assert self.accept(EMPTY, parse_trace("?1 stop")) is False
        assert self.accept(EMPTY, parse_trace("!1 stop")) is False

    def test_golden_invalid_run(self, sum_spec):
        assert self.accept(sum_spec, parse_trace("?3 !4 ?-1 !2 ?7 !1 ?4 !10 stop")) is False

    def test_optional_output_both_ways(self, sum_spec):
        assert self.accept(sum_spec, parse_trace("?1 ?4 !4 stop")) is True
        assert self.accept(sum_spec, parse_trace("?1 !1 ?4 !4 stop")) is True
        assert self.accept(sum_spec, parse_trace("?1 !2 ?4 !4 stop")) is False

    def test_domain_respected(self, sum_spec):
        # the first read wants a natural number
        assert self.accept(sum_spec, parse_trace("?-1 !0 stop")) is False

    def test_incomplete_run_rejected(self, sum_spec):
        assert self.accept(sum_spec, parse_trace("?2 ?5 stop")) is False
        assert self.accept(sum_spec, parse_trace("?2 ?5 ?3 stop")) is False

    def test_surplus_trace_rejected(self, sum_spec):
        assert self.accept(sum_spec, parse_trace("?0 !0 !0 stop")) is False

    def test_trace_length_limit(self):
        # a loop allowed to run long enough must trip the length bound first
        spec = Spec((
            TillExit(Spec((
                Branch(
                    Apply(">=", (Apply("len", (AllVar("x"),)), IntConst(10**9))),
                    Spec((ReadInput("x", Integers()),)),
                    Spec((Exit(),)),
                ),
            ))),
        ))
        limits = GenerationLimits(max_loop_iterations=10**9, max_trace_length=50)
        with pytest.raises(GenerationFailureError):
            sample_generalized_trace(spec, limits=limits)

    def test_runaway_loop_hits_limit(self):
        spec = Spec((
            TillExit(Spec((
                Branch(
                    Apply("==", (IntConst(0), IntConst(1))),
                    Spec((WriteOutput((IntConst(1),), includes_epsilon=True),)),
                    Spec((Exit(),)),
                ),
            ))),
        ))
        with pytest.raises(LimitExceededError):
            self.accept(spec, Trace(()), limits=GenerationLimits(max_loop_iterations=50))

    def test_eval_error_propagates(self):
        bad = Spec((WriteOutput((CurrentVar("x"),)),))
        with pytest.raises(UnboundCurrentError):
            self.accept(bad, parse_trace("!1 stop"))


class TestAcceptInterpretsFirst:
    """The library `accept` runs the whole specification on the run's
    inputs to the end before it checks any output gap, so errors of
    `interpret` surface even past an early mismatch, where the oracle
    stops."""

    def test_runaway_loop_after_mismatch_hits_limit(self):
        spec = parse_spec(
            "write { 1 } loop { if 0 == 1 then { exit } else { write { eps, 1 } } }"
        )
        with pytest.raises(LimitExceededError):
            accept(spec, parse_trace("!2 stop"),
                   limits=GenerationLimits(max_loop_iterations=50))

    def test_run_goes_on_after_a_mismatched_gap(self):
        # the first gap closes at the read, well before the runaway loop
        spec = parse_spec(
            "write { 1 } read x : ints"
            " loop { if 0 == 1 then { exit } else { write { eps, 1 } } }"
        )
        with pytest.raises(LimitExceededError):
            accept(spec, parse_trace("!2 ?0 stop"),
                   limits=GenerationLimits(max_loop_iterations=50))

    def test_trace_longer_than_length_limit(self, sum_spec):
        trace = Trace((In(60),) + (In(1),) * 60 + (Out(60),))
        with pytest.raises(LimitExceededError):
            accept(sum_spec, trace, limits=GenerationLimits(max_trace_length=50))

    def test_unbound_current_on_a_path_the_run_never_reaches(self):
        spec = parse_spec(
            "read n : nats write { n_C }"
            " if n_C == 0 then { write { x_C } } else { read x : ints }"
        )
        assert well_formed(normalize_spec(spec)) == []
        with pytest.raises(UnboundCurrentError):
            accept(spec, parse_trace("?0 !1 stop"))

    def test_long_run_builds_no_output_set(self, sum_spec, monkeypatch):
        # accept, interpret, normalize and covers work on the inputs and
        # the output gaps, and build no step object, save the one set a
        # mismatch reports
        n = 2000
        steps = [In(n)]
        for i in range(n):
            steps += [Out(n - i), In(i)] if i % 2 else [In(i)]
        valid = Trace(tuple(steps) + (Out(sum(range(n))),))
        invalid = Trace(tuple(steps) + (Out(sum(range(n)) + 1),))
        limits = GenerationLimits(max_loop_iterations=2 * n)
        inputs = valid.inputs()

        # an output set is built by its constructor or by `_of`, unchecked
        built = []
        init, of = OutputWordSet.__init__, OutputWordSet._of
        monkeypatch.setattr(OutputWordSet, "__init__",
                            lambda s, *factors: built.append(s) or init(s, *factors))
        monkeypatch.setattr(OutputWordSet, "_of",
                            staticmethod(lambda *fields: built.append(fields) or of(*fields)))
        ins = []
        monkeypatch.setattr(In, "__init__", lambda s, value: ins.append(value))
        # accept checks the run's gaps against the trace's words, with no
        # generalized trace and no mismatch built
        for trace, verdict in ((valid, True), (invalid, False)):
            assert accept(sum_spec, trace, limits=limits) is verdict
        gt = interpret(sum_spec, inputs, limits=limits)
        assert covers(gt, normalize(valid)) == Covered()
        assert built == [] and ins == []
        result = covers(gt, normalize(invalid))
        assert (result.word, result.position) == ((sum(range(n)) + 1,), n + 1 + n // 2)
        assert len(built) == 1 and ins == []

    def test_two_value_words_against_two_writes(self):
        # every round's gap has a word of two values, from two optional
        # writes, which accept checks against the product of their factors
        n = 2000
        spec = parse_spec(SUM_SPEC_TEXT.replace(
            "write { eps, n_C - len(x_A) }",
            "write { eps, n_C - len(x_A) } write { eps, len(x_A) }"))
        steps = [In(n)]
        for i in range(n):
            steps += [Out(n - i), Out(i), In(i)]
        valid = Trace(tuple(steps) + (Out(sum(range(n))),))
        invalid = Trace(tuple(steps) + (Out(sum(range(n)) + 1),))
        limits = GenerationLimits(max_loop_iterations=2 * n)
        assert all(len(word) == 2 for word in valid.gaps[1:-1])
        for trace, verdict in ((valid, True), (invalid, False)):
            assert accept(spec, trace, limits=limits) is verdict

    def test_unhashable_value_raises_as_interpret_does(self):
        # accept runs the writes interpret runs, and a write hashes each
        # value as it builds its factor
        for terms in [(AllVar("x"),), (CurrentVar("x"), AllVar("x"))]:
            spec = Spec((ReadInput("x", Integers()), WriteOutput(terms, False)))
            for text in ("?1 stop", "?1 !1 stop", "?1 !1 !2 stop"):
                trace = parse_trace(text)
                with pytest.raises(TypeError, match="unhashable type: 'list'"):
                    interpret(spec, trace.inputs())
                with pytest.raises(TypeError, match="unhashable type: 'list'"):
                    accept(spec, trace)
        # a write takes all its values before it hashes any
        spec = Spec((
            ReadInput("x", Integers()),
            WriteOutput((AllVar("x"), Apply("nope", (CurrentVar("x"),))), True),
        ))
        for text in ("?1 stop", "?1 !1 stop", "?1 !1 !2 stop"):
            trace = parse_trace(text)
            with pytest.raises(EvalError, match="unknown function"):
                interpret(spec, trace.inputs())
            with pytest.raises(EvalError, match="unknown function"):
                accept(spec, trace)

    def test_input_errors_reject(self):
        spec = parse_spec("read x : nats write { x_C }")
        assert accept(spec, parse_trace("?1 !1 ?2 stop")) is False  # surplus
        assert accept(spec, parse_trace("?-1 !-1 stop")) is False  # domain
        assert accept(spec, parse_trace("!1 stop")) is False  # missing


class TestExitDiscard:
    accept = staticmethod(accept)

    def test_exit_discards_rest_of_loop_round(self):
        # exit reached through two nested satisfied branches skips the
        # trailing write of the same round
        spec = Spec((
            TillExit(Spec((
                Branch(ALWAYS, EMPTY, Spec((Branch(ALWAYS, EMPTY, Spec((Exit(),))),))),
                WriteOutput((IntConst(1),)),
            ))),
        ))
        assert self.accept(spec, Trace(())) is True
        assert self.accept(spec, parse_trace("!1 stop")) is False
        assert render_trace(interpret(spec, [])) == "stop"

    def test_trailing_actions_run_until_the_exit_round(self):
        len_x = Apply("len", (AllVar("x"),))
        body = Spec((
            Branch(
                Apply(">=", (len_x, IntConst(1))),
                Spec((ReadInput("x", Integers()),)),
                Spec((Branch(
                    Apply(">=", (len_x, IntConst(2))),
                    Spec((ReadInput("x", Integers()),)),
                    Spec((Exit(),)),
                ),)),
            ),
            WriteOutput((IntConst(7),)),
        ))
        spec = Spec((TillExit(body), WriteOutput((IntConst(9),))))
        # rounds: read a, write 7; read b, write 7; exit; then write 9,
        # where the last 7 and the 9 fuse into one word
        assert render_trace(interpret(spec, [4, -2])) == "?4 !{7} ?-2 !{<7 9>} stop"
        assert self.accept(spec, parse_trace("?4 !7 ?-2 !7 !9 stop")) is True
        assert self.accept(spec, parse_trace("?4 !7 ?-2 !9 stop")) is False

    def test_direct_exit_discards_trailing_writes(self):
        spec = Spec((
            TillExit(Spec((Exit(), WriteOutput((IntConst(5),))))),
            WriteOutput((IntConst(3),)),
        ))
        assert render_trace(interpret(spec, [])) == "!{3} stop"
        assert self.accept(spec, parse_trace("!3 stop")) is True
        assert self.accept(spec, parse_trace("!5 !3 stop")) is False


class TestOracleAccept(TestAccept):
    accept = staticmethod(oracle.accept)


class TestOracleExitDiscard(TestExitDiscard):
    accept = staticmethod(oracle.accept)


class TestInterpret:
    def test_set_shapes(self, sum_spec):
        assert render_trace(interpret(sum_spec, [0])) == "?0 !{0} stop"
        assert render_trace(interpret(sum_spec, [1, 4])) == "?1 !{eps, 1} ?4 !{4} stop"
        assert (
            render_trace(interpret(sum_spec, [2, 3, 7]))
            == "?2 !{eps, 2} ?3 !{eps, 1} ?7 !{10} stop"
        )

    def test_adjacent_writes_fuse(self):
        spec = parse_spec("read x : ints write { eps, x_C } write { eps, x_C }")
        assert render_trace(interpret(spec, [9])) == "?9 !{eps, 9, <9 9>} stop"

    def test_one_value_writes_build_tuple_factors(self):
        # a write's factor is the tuple of its words while its values are
        # distinct, and a frozenset, which drops the repeats, when two of
        # them are equal: a write of one value always builds a tuple
        spec = parse_spec("read x : ints write { eps, x_C } write { x_C } write { x_C, 1 }")
        _, (skippable, plain, two) = interpret(spec, [1]).gaps
        assert skippable == ((), (1,)) and plain == ((1,),) and two == frozenset({(1,)})
        # the value is hashed before the tuple is built, skippable or not
        for includes_epsilon in (False, True):
            spec = Spec((ReadInput("x", Integers()), WriteOutput((AllVar("x"),), includes_epsilon)))
            with pytest.raises(TypeError, match="unhashable type: 'list'"):
                interpret(spec, [1])
        # x = 0 makes the two values coincide, x = 3 does not; every decider
        # agrees on both forms
        spec = parse_spec("read x : ints write { x_C, 2 * x_C }")
        (_, (coinciding,)), (_, (distinct,)) = interpret(spec, [0]).gaps, interpret(spec, [3]).gaps
        assert type(coinciding) is frozenset and coinciding == frozenset({(0,)})
        assert type(distinct) is tuple and sorted(distinct) == [(3,), (6,)]
        # at x = -1, hash(-1) == hash(-2): the values are compared, and differ
        for x, text in ((0, "?0 !{0} stop"), (3, "?3 !{3, 6} stop"), (-1, "?-1 !{-2, -1} stop")):
            gt = interpret(spec, [x])
            for words in ((), (0,), (1,), (3,), (6,), (3, 6), (0, 0), (-1,), (-2,)):
                trace = Trace((In(x), *map(Out, words)))
                verdict = accept(spec, trace)
                assert verdict is (covers(gt, normalize(trace)) == Covered())
                assert verdict is (_cover(gt, trace.input_values, trace.gaps) == Covered())
                assert verdict is oracle.accept(spec, trace)
                assert verdict is (len(words) == 1 and words[0] in (x, 2 * x))
            as_sets = GeneralizedTrace._of(gt.input_values, tuple(
                tuple(map(frozenset, gap)) for gap in gt.gaps))
            assert render_trace(gt) == render_trace(as_sets) == text
        parsed = parse_generalized_trace("?3 !{3, 6} stop").steps[1]
        assert OutputWordSet._of((distinct,)) == parsed
        assert hash(OutputWordSet._of((distinct,))) == hash(parsed)
        # three or more values have their hashes compared as a set
        spec = parse_spec("read x : ints write { eps, x_C, x_C + 1, x_C + 2, x_C + 3, 5 * x_C }")
        for x, kind, size in ((0, frozenset, 5), (3, tuple, 6), (-2, tuple, 6)):
            ((), (factor,)) = interpret(spec, [x]).gaps
            assert type(factor) is kind and len(factor) == size
            assert frozenset(factor) == {(), *[(x + k,) for k in range(4)], (5 * x,)}

        # values from registry functions: an unhashable one, first or
        # second, raises what a frozenset raises, and only after every
        # value is taken
        with pytest.raises(TypeError) as unhashable:
            frozenset([([1],)])

        class Opaque:  # compared only on equal hashes
            def __init__(self, key):
                self.key = key

            def __hash__(self):
                return self.key

            def __eq__(self, other):
                raise AssertionError("compared")

        nan = float("nan")
        registry = DEFAULT_REGISTRY.extended(*[
            FunctionSpec(name, (Sort.INT,), Sort.INT, fn) for name, fn in [
                ("listed", lambda x: [x]), ("fails", lambda x: 1 // 0),
                ("opaque", Opaque), ("nan1", lambda x: nan), ("nan2", lambda x: nan),
            ]
        ])

        def run(text):
            return interpret(parse_spec("read x : ints write { " + text + " }", registry), [1], registry)

        for text in ("listed(x_C), x_C", "x_C, listed(x_C)"):
            with pytest.raises(TypeError, match=f"^{re.escape(str(unhashable.value))}$"):
                run(text)
        with pytest.raises(ZeroDivisionError):
            run("listed(x_C), fails(x_C)")
        ((), (factor,)) = run("opaque(x_C), opaque(x_C + 1)").gaps
        assert [word[0].key for word in factor] == [1, 2]
        with pytest.raises(AssertionError, match="compared"):  # as a frozenset would
            run("opaque(x_C), opaque(2 * x_C - 1)")
        # one NaN object is one word: a frozenset finds it by identity
        ((), (factor,)) = run("nan1(x_C), nan2(x_C)").gaps
        assert len(factor) == 1 and next(iter(factor))[0] is nan

    def test_input_rejected(self, sum_spec):
        with pytest.raises(InputRejectedError) as exc:
            interpret(sum_spec, [-3])
        assert exc.value.position == 0
        assert exc.value.value == -3

    def test_inputs_exhausted(self, sum_spec):
        with pytest.raises(InputsExhaustedError):
            interpret(sum_spec, [2, 5])
        # the count's read, the loop's first read, and a read inside the
        # loop after it has run: each raises at its own position, and
        # accept rejects any trace with those inputs
        for inputs, position, ordinal in (([], 0, "1st"), ([3], 1, "2nd"), ([3, 1, 2], 3, "4th")):
            with pytest.raises(InputsExhaustedError) as exc:
                interpret(sum_spec, inputs)
            assert exc.value.position == position
            assert str(exc.value) == f"the specification demands a {ordinal} input"
            for outputs in ((), (1,), (sum(inputs[1:]),)):
                trace = Trace(tuple(In(v) for v in inputs) + tuple(Out(v) for v in outputs))
                assert accept(sum_spec, trace) is False

    def test_surplus_inputs(self, sum_spec):
        with pytest.raises(SurplusInputsError) as exc:
            interpret(sum_spec, [1, 5, 5])
        assert exc.value.count == 1

    def test_no_consecutive_output_sets(self):
        rng = random.Random(17)
        for _ in range(100):
            spec = random_spec(rng)
            gt = sample_generalized_trace(spec, policy=SamplingPolicy(seed=rng.getrandbits(32)))
            previous_was_set = False
            for step in gt.steps:
                is_set = isinstance(step, OutputWordSet)
                assert not (is_set and previous_was_set)
                previous_was_set = is_set

    def test_deterministic(self, sum_spec):
        a = interpret(sum_spec, [3, 1, 2, 3])
        b = interpret(sum_spec, [3, 1, 2, 3])
        assert a == b


def wide_spec(k: int):
    # k back-to-back skippable writes: their fused set has 2^(k+1) - 1 words
    return parse_spec("read x : ints\n" + "write { eps, x_C, x_C + 1 }\n" * k)


class TestWideOutputSets:
    def test_twenty_fused_writes_stay_fast(self):
        spec = wide_spec(20)
        start = time.perf_counter()
        gt = interpret(spec, [3])
        valid = Trace((In(3),) + tuple(Out(v) for v in [4, 3] * 10))
        invalid = Trace((In(3),) + tuple(Out(v) for v in [4, 3] * 10 + [4]))
        assert accept(spec, valid) is True
        assert accept(spec, invalid) is False
        assert time.perf_counter() - start < 1.0
        (word_set,) = gt.steps[1:]
        assert len(word_set.factors) == 20
        assert (4, 3) * 10 in word_set and (4, 3) * 10 + (4,) not in word_set

    def test_hash_colliding_values_stay_fast(self):
        # hash(-1) == hash(-2), so enumerating the words of x = -2 made every
        # word of one length collide; a product never hashes them
        spec = wide_spec(12)
        start = time.perf_counter()
        gt = interpret(spec, [-2])
        assert time.perf_counter() - start < 1.0
        assert (-2, -1, -1) in gt.steps[1]


class TestCompiledWalk:
    """A specification is compiled once and the compiled form reused; each
    run must still behave as a fresh walk over the tree."""

    def test_bad_terms_on_untaken_paths_do_not_raise(self):
        positive = Apply(">", (CurrentVar("x"), IntConst(0)))
        bad_writes = [
            WriteOutput((Apply("nope", (CurrentVar("x"),)),)),
            WriteOutput((CurrentVar("y"),)),
            WriteOutput(("not a term",)),
            WriteOutput(([1],)),  # unhashable, and so is any tree holding it
        ]
        errors = [EvalError, UnboundCurrentError, EvalError, EvalError]
        for bad, error in zip(bad_writes, errors):
            spec = Spec((
                ReadInput("x", Integers()),
                Branch(positive, Spec((WriteOutput((CurrentVar("x"),)),)), Spec((bad,))),
            ))
            assert render_trace(interpret(spec, [-1])) == "?-1 !{-1} stop"
            with pytest.raises(error):
                interpret(spec, [1])
        spec = Spec((
            ReadInput("x", Integers()),
            Branch(positive, EMPTY, Spec(("not an action",))),
        ))
        assert render_trace(interpret(spec, [-1])) == "?-1 stop"
        with pytest.raises(TypeError):
            interpret(spec, [1])

    @pytest.mark.parametrize("text", [
        "read n : nats if n_C == 0 then { skip } else { read x : ints } write { x_C }",
        "read n : nats loop { if len(x_A) == n_C then { exit } else { skip } read x : ints }"
        " write { x_C }",
    ], ids=["branch", "loop"])
    def test_a_value_read_on_some_paths_only_keeps_its_guard(self, text):
        # x is read in one arm of the branch, or at the end of a loop's
        # body, which may exit before it in its first round: x_C after the
        # branch or the loop checks that x was read
        spec = parse_spec(text)
        assert render_trace(interpret(spec, [1, 5])) == "?1 ?5 !{5} stop"
        assert accept(spec, parse_trace("?1 ?5 !5 stop")) is True
        with pytest.raises(UnboundCurrentError, match="^x_C has no value"):
            interpret(spec, [0])
        with pytest.raises(UnboundCurrentError, match="^x_C has no value"):
            accept(spec, parse_trace("?0 !0 stop"))

    def test_each_registry_gets_its_own_result(self):
        spec = parse_spec("read x : ints write { len(x_A) }")
        plus_100 = DEFAULT_REGISTRY.extended(
            FunctionSpec("len", (Sort.INT_LIST,), Sort.INT, lambda xs: len(xs) + 100)
        )
        for _ in range(3):
            assert render_trace(interpret(spec, [7])) == "?7 !{1} stop"
            assert render_trace(interpret(spec, [7], plus_100)) == "?7 !{101} stop"

    def test_equal_specs_give_equal_traces(self, sum_spec):
        a = parse_spec(render_spec(sum_spec))
        b = parse_spec(render_spec(sum_spec))
        assert a == b and a is not b
        first = interpret(a, [2, 5, 3])
        assert interpret(b, [1, 4]) != first
        assert interpret(b, [2, 5, 3]) == first
        assert accept(b, parse_trace("?2 !2 ?5 !1 ?3 !8 stop")) is True

    @pytest.fixture
    def compiled(self, monkeypatch) -> list:
        """The specifications compiled from here on, one per compile."""
        specs = []
        compile_spec = semantics._Compiler.compile

        def counted(compiler, spec):
            specs.append(spec)
            return compile_spec(compiler, spec)

        monkeypatch.setattr(semantics._Compiler, "compile", counted)
        return specs

    def test_each_spec_object_compiles_once(self, compiled):
        # interpret, sampling and accept share one compiled run
        spec = parse_spec(SUM_SPEC_TEXT)
        for _ in range(2):
            interpret(spec, [2, 5, 3])
            assert accept(spec, parse_trace("?2 ?5 ?3 !8 stop")) is True
            sample_generalized_trace(spec)
        assert len(compiled) == 1 and compiled[0] is spec
        # an equal tree is another object, and compiles its own code
        twin = parse_spec(SUM_SPEC_TEXT)
        assert interpret(twin, [2, 5, 3]) == interpret(spec, [2, 5, 3])
        assert len(compiled) == 2 and compiled[1] is twin

    def test_copies_carry_fields_only_and_compile_afresh(self, compiled):
        spec = parse_spec(SUM_SPEC_TEXT)
        trace = parse_trace("?2 ?5 ?3 !8 stop")
        assert accept(spec, trace) is True
        twins = [pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)]
        for twin in twins:
            assert vars(twin) == {"actions": spec.actions}
            assert accept(twin, trace) is True
            assert accept(twin, parse_trace("?2 ?5 ?3 !9 stop")) is False
            assert interpret(twin, [1, 4]) == interpret(spec, [1, 4])
        objects = [spec, *twins]
        assert len(compiled) == 4 and all(a is b for a, b in zip(compiled, objects))

    def test_compiled_code_does_not_keep_its_spec_alive(self):
        enabled = gc.isenabled()
        gc.disable()  # a reference cycle would keep the spec until a collection
        try:
            # a tree no other test builds, so no cache could hold an equal one
            spec = parse_spec("read kept_alive : nats\nwrite { kept_alive_C * 7 }\n")
            assert render_trace(interpret(spec, [3])) == "?3 !{21} stop"
            sample_generalized_trace(spec)
            alive = weakref.ref(spec)
            del spec
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_limits_belong_to_each_call(self):
        runaway = Spec((
            TillExit(Spec((
                Branch(
                    Apply("==", (IntConst(0), IntConst(1))),
                    Spec((WriteOutput((IntConst(1),), includes_epsilon=True),)),
                    Spec((Exit(),)),
                ),
            ))),
        ))
        for rounds in (1000, 50, 7, 1000):
            with pytest.raises(LimitExceededError, match=f"more than {rounds} rounds"):
                interpret(runaway, [], limits=GenerationLimits(max_loop_iterations=rounds))
        for steps in (50, 20):
            limits = GenerationLimits(max_loop_iterations=10**9, max_trace_length=steps)
            with pytest.raises(GenerationFailureError, match=f"past {steps} steps"):
                sample_generalized_trace(STUCK_SPEC, limits=limits)

    def test_round_limit_boundary(self):
        # sum.iospec runs its loop 4 rounds on these inputs, the last one
        # taking the exit
        spec = parse_spec(SUM_SPEC_TEXT)
        inputs = [3, 1, 2, 3]
        trace = parse_trace("?3 ?1 ?2 ?3 !6 stop")
        enough = GenerationLimits(max_loop_iterations=4)
        assert render_trace(interpret(spec, inputs, limits=enough)) == (
            "?3 !{eps, 3} ?1 !{eps, 2} ?2 !{eps, 1} ?3 !{6} stop"
        )
        assert accept(spec, trace, limits=enough) is True
        short = GenerationLimits(max_loop_iterations=3)
        with pytest.raises(LimitExceededError, match="^loop ran more than 3 rounds$"):
            interpret(spec, inputs, limits=short)
        with pytest.raises(LimitExceededError, match="^loop ran more than 3 rounds$"):
            accept(spec, trace, limits=short)

    @pytest.mark.parametrize("write, trace, error", [
        (IntConst(1), "!1 stop", InputsExhaustedError),
        (IntConst(1), "!1 ?-1 stop", InputRejectedError),
        (IntConst(1), "!1 ?1 stop", LimitExceededError),
        (CurrentVar("y"), "!1 stop", UnboundCurrentError),
        (CurrentVar("y"), "!1 ?-1 stop", UnboundCurrentError),
    ], ids=["exhausted", "rejected", "limit", "write-before-exhausted",
            "write-before-rejected"])
    def test_which_error_one_read_raises_first(self, write, trace, error):
        # a read checks for an input, then its domain, then the grown
        # trace; the write the read closes raises before any of these
        spec = Spec((WriteOutput((write,)), ReadInput("x", Naturals())))
        limits = GenerationLimits(max_trace_length=1)
        trace = parse_trace(trace)
        with pytest.raises(error):
            interpret(spec, trace.input_values, limits=limits)
        if issubclass(error, InterpretError):
            assert accept(spec, trace, limits=limits) is False
        else:
            with pytest.raises(error):
                accept(spec, trace, limits=limits)

    def test_round_limit_counts_each_call_of_a_loop(self):
        spec = parse_spec(
            "read n : nats loop { if len(x_A) == n_C then { exit } else {"
            " read x : ints loop { read y : ints if y_C == 0 then { exit } else { skip } } } }"
            " write { len(y_A) }"
        )
        inputs = [3, 7, 1, 0, 8, 1, 0, 9, 1, 0]
        # the inner loop runs 6 rounds in all, 2 in each of its 3 calls
        gt = interpret(spec, inputs, limits=GenerationLimits(max_loop_iterations=4))
        assert render_trace(gt) == "?3 ?7 ?1 ?0 ?8 ?1 ?0 ?9 ?1 ?0 !{6} stop"
        # the outer loop runs 4 rounds
        with pytest.raises(LimitExceededError, match="^loop ran more than 3 rounds$"):
            interpret(spec, inputs, limits=GenerationLimits(max_loop_iterations=3))

    def test_runs_of_nested_loops_leave_no_cyclic_garbage(self):
        spec = parse_spec(
            "read n : nats loop { if len(x_A) == n_C then { exit } else {"
            " read x : ints loop { read y : ints if y_C == 0 then { exit } else { write { y_C } } } } }"
        )
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()  # so that any cycle a run leaves is still there to count
        try:
            for seed in range(200):
                sample_generalized_trace(spec, policy=SamplingPolicy((0, 2), (0, 3), seed))
                interpret(spec, [2, 5, 1, 0, 6, 0])
                assert accept(spec, parse_trace("?2 ?5 ?1 !1 ?0 ?6 ?0 stop")) is True
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    # Generated code: text from the tree must never become code.

    def test_any_string_is_a_variable_name(self):
        names = ["x; import os", "h0", "steps", "__builtins__", "len", "read"]
        spec = Spec((
            *[ReadInput(name, Integers()) for name in names],
            ReadInput("h0", Integers()),
            WriteOutput(tuple(CurrentVar(name) for name in names)),
            WriteOutput(tuple(Apply("len", (AllVar(name),)) for name in names)),
            WriteOutput(tuple(Apply("sum", (AllVar(name),)) for name in names)),
        ))
        inputs = [10, 20, 30, 40, 50, 60, 70]
        gt = interpret(spec, inputs)
        assert gt.steps[:7] == tuple(In(v) for v in inputs)
        # each name is its own history; "h0" was read twice
        assert gt.steps[7] == OutputWordSet(
            {(10,), (70,), (30,), (40,), (50,), (60,)},
            {(1,), (2,)},
            {(10,), (90,), (30,), (40,), (50,), (60,)},
        )
        # one read each, and a registry function sees each history whole
        registry = DEFAULT_REGISTRY.extended(
            FunctionSpec("history", (Sort.INT_LIST,), Sort.INT, tuple)
        )
        spec = Spec((
            *[ReadInput(name, Integers()) for name in names],
            WriteOutput(tuple(CurrentVar(name) for name in names)),
            WriteOutput(tuple(Apply("history", (AllVar(name),)) for name in names)),
        ))
        gt = interpret(spec, range(len(names)), registry)
        assert gt.steps[-1] == OutputWordSet(
            {(i,) for i in range(len(names))},
            {((i,),) for i in range(len(names))},
        )

    def test_any_value_is_a_constant_or_function_name(self):
        odd = IntConst("1) or (1")
        quoted = "f\"'\\n"
        registry = DEFAULT_REGISTRY.extended(
            FunctionSpec(quoted, (Sort.INT,), Sort.INT, lambda v: -v)
        )
        positive = Apply(">", (CurrentVar("x"), IntConst(0)))
        for bad, error in [
            (Apply("+", (odd, IntConst(1))), TypeError),
            (Apply(quoted, (CurrentVar("x"),)), EvalError),  # not in the default registry
        ]:
            spec = Spec((
                ReadInput("x", Integers()),
                Branch(positive, Spec((WriteOutput((odd,)),)), Spec((WriteOutput((bad,)),))),
            ))
            assert interpret(spec, [-1]).steps[1] == OutputWordSet({("1) or (1",)})
            with pytest.raises(error):
                interpret(spec, [1])
        with pytest.raises(EvalError, match="unknown function"):
            interpret(Spec((WriteOutput((Apply(quoted, (IntConst(1),)),)),)), [])
        spec = Spec((
            ReadInput("x", Integers()),
            WriteOutput((Apply(quoted, (CurrentVar("x"),)),)),
        ))
        assert render_trace(interpret(spec, [4], registry)) == "?4 !{-4} stop"
        spec = Spec((WriteOutput((Apply(quoted, (IntConst(2),)),)),))
        assert render_trace(interpret(spec, [], registry)) == "!{-2} stop"

    @pytest.mark.parametrize("kind", ["if", "loop", "term"])
    def test_nesting_past_the_limit_is_a_structure_error(self, kind):
        def nested(levels):
            if kind == "term":
                term = CurrentVar("x")
                for _ in range(levels):
                    term = Apply("+", (term, IntConst(1)))
                return Spec((ReadInput("x", Integers()), WriteOutput((term,))))
            # a read at the deepest level: its inline code nests further
            body = Spec((WriteOutput((CurrentVar("x"),)), ReadInput("y", Naturals())))
            for _ in range(levels):
                if kind == "if":
                    body = Spec((Branch(ALWAYS, EMPTY, body),))
                else:
                    body = Spec((TillExit(Spec((*body.actions, Exit()))),))
            return Spec((ReadInput("x", Integers()), *body.actions))

        inputs = [1] if kind == "term" else [1, 2]
        assert len(interpret(nested(MAX_NESTING), inputs).steps) == len(inputs) + 1
        trace = f"?1 !{MAX_NESTING + 1} stop" if kind == "term" else "?1 !1 ?2 stop"
        assert accept(nested(MAX_NESTING), parse_trace(trace)) is True
        # 2000 levels pass CPython's recursion limit: no walk of the
        # compiler may go deeper than its own check
        for levels in (MAX_NESTING + 1, MAX_NESTING + 5, 2000):
            with pytest.raises(SpecStructureError, match=f"more than {MAX_NESTING} levels"):
                interpret(nested(levels), [1])
            with pytest.raises(SpecStructureError):
                accept(nested(levels), parse_trace("?1 !1 stop"))
        if kind == "term":
            # under an unknown function too, whose arguments are never compiled
            (read, write) = nested(MAX_NESTING).actions
            unknown = Spec((read, WriteOutput((Apply("nope", write.terms),))))
            with pytest.raises(SpecStructureError, match=f"more than {MAX_NESTING} levels"):
                interpret(unknown, [1])


# A nested loop, a branch and a write of two values, beside the two sum
# specifications under tests/data.
NESTED_SPEC_TEXT = """\
read n : nats
loop {
  if len(x_A) == n_C then {
    exit
  } else {
    read x : ints
    loop {
      if x_C > 0 then {
        write { eps, x_C }
        exit
      } else {
        exit
      }
    }
    write { x_C, sum(x_A) }
  }
}
"""


# Where the compiler specializes: a write before a branch, before a loop
# call and before an exit, each left in `pending`, not closed by a read
# of its own block; x read in one
# arm only, so x_C after the branch keeps its guard; y read only through
# len(y_A), so it keeps a history and no current value, and x and n only
# through x_C and n_C, so they keep a current value and no history.
CARRY_SPEC_TEXT = """\
read n : nats
write { n_C }
if n_C == 0 then {
  read x : ints
} else {
  skip
}
write { eps, x_C }
loop {
  if len(y_A) == n_C then {
    write { len(y_A) }
    exit
  } else {
    write { eps, n_C }
    read y : ints
  }
}
"""


# A hand-built tree no parser makes: a non-action on one path and an exit
# outside all loops after it, so each raise the code makes itself shows.
RAISES_SPEC = Spec((
    ReadInput("x", Naturals()),
    Branch(Apply(">", (CurrentVar("x"), IntConst(0))), EMPTY, Spec(("not an action",))),
    Exit(),
))


def _generated_spec(name: str) -> Spec:
    if name == "raises":
        return RAISES_SPEC
    if name == "nested":
        return parse_spec(NESTED_SPEC_TEXT)
    if name == "carry":
        return parse_spec(CARRY_SPEC_TEXT)
    if name in ("skippable", "wide"):
        # the spec families the benchmark runs, from bench/corpus.py by path
        corpus = runpy.run_path(str(DATA_DIR.parent.parent / "bench" / "corpus.py"))
        return parse_spec(corpus[f"{name.upper()}_SPEC"])
    return parse_spec((DATA_DIR / f"{name}.iospec").read_text())


class TestGeneratedSource:
    """The source `_Compiler.compile` hands to `compile`, for the two sum
    specifications, a nested one, one where each specialization of the
    compiler shows, the benchmark's skippable and wide families and a
    hand-built tree that raises, is the committed text
    under tests/data/generated/, so a change to the generated code shows
    in a diff as code.  After such a change, rewrite the files by running
    this test with IOSPEC_REGENERATE=1 in the environment, and read their
    diff."""

    @pytest.mark.parametrize("name", ["sum", "sum_plain", "nested", "carry", "skippable", "wide",
                                      "raises"])
    def test_generated_source_is_the_committed_text(self, name, monkeypatch):
        spec = _generated_spec(name)
        sources = []

        def capture(source, filename, mode):
            sources.append(source)
            return compile(source, filename, mode)

        monkeypatch.setattr(semantics, "compile", capture, raising=False)
        semantics._Compiler(DEFAULT_REGISTRY).compile(spec)
        (source,) = sources
        path = DATA_DIR / "generated" / f"{name}.py"
        if os.environ.get("IOSPEC_REGENERATE"):
            path.write_text(source)
        assert source == path.read_text()


class TestExitOutsideLoop:
    # hand-built trees only: well_formed rejects these as orphan exits
    def test_top_level_exit(self):
        with pytest.raises(SpecStructureError):
            interpret(Spec((Exit(),)), [])

    def test_exit_inside_top_level_branch(self):
        spec = Spec((Branch(ALWAYS, EMPTY, Spec((Exit(),))),))
        with pytest.raises(SpecStructureError):
            interpret(spec, [])


class TestSample:
    def test_deterministic_per_seed(self, sum_spec):
        policy = SamplingPolicy(seed=424242)
        a = sample_generalized_trace(sum_spec, policy=policy)
        b = sample_generalized_trace(sum_spec, policy=policy)
        assert a == b

    def test_negative_seeds_have_their_own_streams(self, sum_spec):
        # `random.Random` seeds an int by its absolute value
        def samples(seeds):
            return [sample_generalized_trace(sum_spec, policy=SamplingPolicy(seed=s))
                    for s in seeds]

        assert samples(range(-1, -11, -1)) != samples(range(1, 11))
        assert samples([-7]) == samples([-7])
        # a non-negative seed still draws what `random.Random` draws
        for seed in (0, 1, 2**64 - 1):
            assert SamplingPolicy(seed=seed).rng().getrandbits(64) == (
                random.Random(seed).getrandbits(64))

    def test_shape_and_ranges(self, sum_spec):
        for seed in range(300):
            gt = sample_generalized_trace(sum_spec, policy=SamplingPolicy(seed=seed))
            inputs = gt.inputs()
            n, summands = inputs[0], inputs[1:]
            assert 0 <= n <= 10
            assert len(summands) == n
            assert all(-10 <= v <= 10 for v in summands)

    def test_empty_spec(self):
        assert render_trace(sample_generalized_trace(EMPTY)) == "stop"

    def test_custom_ranges(self, sum_spec):
        policy = SamplingPolicy(integer_range=(5, 5), natural_range=(2, 2), seed=0)
        gt = sample_generalized_trace(sum_spec, policy=policy)
        assert gt.inputs() == [2, 5, 5]

    def test_explicit_domain_ignores_ranges(self):
        spec = Spec((ReadInput("x", ExplicitSet(frozenset({77, 78}))),))
        policy = SamplingPolicy(integer_range=(0, 1), seed=3)
        values = {
            sample_generalized_trace(spec, policy=SamplingPolicy(
                integer_range=(0, 1), seed=s)).inputs()[0]
            for s in range(50)
        }
        assert values == {77, 78}

    def test_generation_failure_on_narrow_exit(self):
        with pytest.raises(GenerationFailureError):
            sample_generalized_trace(
                STUCK_SPEC,
                policy=SamplingPolicy(seed=1),
                limits=GenerationLimits(max_loop_iterations=1000),
            )

    # Golden streams: the inputs `randint` and `choice` draw for each seed.
    # Sampling draws inline, and must take the same bits.
    @pytest.mark.parametrize("seed, inputs", [
        (0, (6, 3, -9, -2, 6, 5, 2)),
        (1, (2, 8, -8)),
        (-1, (1, -5)),
    ])
    def test_golden_sum_streams(self, sum_spec, seed, inputs):
        gt = sample_generalized_trace(sum_spec, policy=SamplingPolicy(seed=seed))
        assert gt.input_values == inputs

    def test_golden_custom_ranges(self, sum_spec):
        policy = SamplingPolicy(integer_range=(-1000, 1000), natural_range=(0, 5), seed=7)
        assert sample_generalized_trace(sum_spec, policy=policy).input_values == (2, 941, -692)

    @pytest.mark.parametrize("seed, inputs", [
        (0, (99991896773263558274, 3, 4, 5, 1143104147282976958217)),
        (1, (161663107527885274672, 3, 4, 5, 1115096291009398468420)),
        (2, (203957373542483079112, -2, 4, 5, 595979924803801113576)),
        (3, (1116943549932561913461, 3, 4, 5, 913541449522985799092)),
    ])
    def test_golden_explicit_sets_and_one_value_range(self, seed, inputs):
        # a one-value range and a one-value set still take their bits
        spec = parse_spec(
            "read a : nats\nread x : {3, -2, 7}\nread y : ints\n"
            "read z : {5}\nread w : nats\n"
        )
        policy = SamplingPolicy(integer_range=(4, 4), natural_range=(0, 2**70), seed=seed)
        assert sample_generalized_trace(spec, policy=policy).input_values == inputs

    @given(
        seed=st.integers(0, 2**64),
        int_lo=st.integers(-(2**70), 2**70),
        nat_lo=st.integers(0, 2**70),
        widths=st.lists(
            st.one_of(
                st.integers(0, 80).flatmap(lambda j: st.sampled_from([2**j, 2**j + 1])),
                st.integers(1, 2**70),
            ),
            min_size=2, max_size=2,
        ),
        domains=st.lists(st.sampled_from(["ints", "nats", "{3, -2, 7}"]), max_size=12),
    )
    def test_draws_are_randint_and_choice(self, seed, int_lo, nat_lo, widths, domains):
        ranges = (int_lo, int_lo + widths[0] - 1), (nat_lo, nat_lo + widths[1] - 1)
        spec = parse_spec("".join(f"read x : {d}\n" for d in domains))
        policy = SamplingPolicy(integer_range=ranges[0], natural_range=ranges[1], seed=seed)
        rng = random.Random(seed)
        expected = tuple(
            rng.choice([-2, 3, 7]) if d.startswith("{") else rng.randint(*ranges[d == "nats"])
            for d in domains
        )
        assert sample_generalized_trace(spec, policy=policy).input_values == expected

    def test_reading_from_a_wide_set_stays_fast(self):
        # 999 reads from one set of 20,000 values in scattered order: the
        # set is sorted once per sample, not once per read
        values = random.Random(0).sample(range(-10**9, 10**9), 20000)
        spec = parse_spec(
            "read n : {999}\nloop {\n  if len(x_A) == n_C then {\n    exit\n"
            f"  }} else {{\n    read x : {{{', '.join(map(str, values))}}}\n  }}\n}}\n"
        )
        start = time.perf_counter()
        gt = sample_generalized_trace(spec, policy=SamplingPolicy(seed=5))
        assert time.perf_counter() - start < 1.0
        assert len(gt.input_values) == 1000 and set(gt.input_values[1:]) <= set(values)

    def test_reproduced_by_interpret(self, sum_spec):
        for seed in range(50):
            gt = sample_generalized_trace(sum_spec, policy=SamplingPolicy(seed=seed))
            assert interpret(sum_spec, gt.inputs()) == gt


class TestConfigTypes:
    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            GenerationLimits(max_loop_iterations=0)
        with pytest.raises(ValueError):
            GenerationLimits(max_trace_length=0)

    def test_policy_ranges_validated(self):
        with pytest.raises(ValueError, match="^empty integer range$"):
            SamplingPolicy(integer_range=(5, 4))
        with pytest.raises(ValueError, match="^natural range must not contain negatives$"):
            SamplingPolicy(natural_range=(-1, 5))
        with pytest.raises(ValueError, match="^empty natural range$"):
            SamplingPolicy(natural_range=(3, 2))

    @pytest.mark.parametrize("name, bounds", [
        ("natural_range", (0, 3.0)),
        ("natural_range", (0, 2.5)),
        ("natural_range", ("0", "3")),
        ("integer_range", (-1.0, 1)),
        ("integer_range", (0, None)),
        ("integer_range", (0,)),
        ("integer_range", (1, 2, 3)),
        ("natural_range", ()),
        ("natural_range", 3),
    ])
    def test_policy_bounds_must_be_ints(self, name, bounds):
        with pytest.raises(TypeError, match=name):
            SamplingPolicy(**{name: bounds})

    @pytest.mark.parametrize("name, limit", [
        ("max_loop_iterations", 2.5),
        ("max_loop_iterations", 10.0),
        ("max_trace_length", 10.5),
        ("max_trace_length", "10"),
        ("max_trace_length", None),
    ])
    def test_limits_must_be_ints(self, name, limit):
        with pytest.raises(TypeError, match=name):
            GenerationLimits(**{name: limit})

    @pytest.mark.parametrize(
        "seed", ["3", None, 1.5, (1,)], ids=["text", "none", "float", "tuple"])
    def test_policy_seed_must_be_an_int(self, seed):
        with pytest.raises(TypeError, match="seed"):
            SamplingPolicy(seed=seed)


def interpret_then_cover(spec, trace, limits=GenerationLimits()) -> bool:
    """The verdict of covers∘interpret, an input error reading False."""
    try:
        gt = interpret(spec, trace.inputs(), limits=limits)
    except InterpretError:
        return False
    return covers(gt, normalize(trace)) == Covered()


def outcome(check, *args, **kwargs):
    """The value `check` returns, or the type of the exception it raises."""
    try:
        return check(*args, **kwargs)
    except Exception as err:
        return type(err)


def failure_or(check, *args, **kwargs):
    """The value `check` returns, or the type and message of the exception
    it raises."""
    try:
        return check(*args, **kwargs)
    except Exception as err:
        return type(err), str(err)


class TestEquivalence:
    """Three deciders of trace acceptance agree: the backtracking oracle,
    the library `accept` (which runs the whole specification on the
    trace's inputs and checks each output gap as the run closes it), and
    covers∘interpret, whose verdict `accept` must give."""

    def test_equivalence_on_random_pairs(self):
        rng = random.Random(20240817)
        checked = 0
        attempts = 0
        while checked < 300 and attempts < 5000:
            attempts += 1
            spec = random_spec(rng, depth=3)
            base_gt = sample_generalized_trace(
                spec, policy=SamplingPolicy(seed=rng.getrandbits(32))
            )
            trace = concretization_as_trace(rng, base_gt)
            if rng.random() < 0.8:
                trace = mutate_trace(rng, trace, rounds=rng.randint(1, 2))
            try:
                gt = interpret(spec, trace.inputs())
            except (InputRejectedError, InputsExhaustedError, SurplusInputsError,
                    UnboundCurrentError):
                continue
            accepted = oracle.accept(spec, trace)
            covered = covers(gt, normalize(trace)) == Covered()
            assert accepted == covered, (
                f"disagreement on {spec} with {render_trace(trace)}"
            )
            assert accept(spec, trace) == covered, render_trace(trace)
            checked += 1
        assert checked == 300

    def test_equivalence_exhaustive_small_traces(self):
        # every trace over a small alphabet, against a spec that fuses
        # optional outputs across loop rounds and the loop exit
        spec = parse_spec(
            "loop {\n"
            "  if len(x_A) == 2 then { write { eps, 9 } exit write { 5 } }\n"
            "  else { write { eps, len(x_A) } read x : {0, 1} }\n"
            "}\n"
            "write { sum(x_A) }\n"
        )
        alphabet = [In(0), In(1), Out(0), Out(1), Out(2), Out(9)]
        agreed = 0
        for length in range(0, 6):
            for steps in itertools.product(alphabet, repeat=length):
                trace = Trace(steps)
                try:
                    gt = interpret(spec, trace.inputs())
                except (InputRejectedError, InputsExhaustedError,
                        SurplusInputsError):
                    continue
                accepted = oracle.accept(spec, trace)
                covered = covers(gt, normalize(trace)) == Covered()
                assert accepted == covered, render_trace(trace)
                assert accept(spec, trace) == covered, render_trace(trace)
                agreed += 1
        assert agreed > 1000

    def test_accept_matches_interpret_then_cover_under_tight_limits(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(1500):
            spec = random_spec(rng, depth=3)
            base_gt = sample_generalized_trace(
                spec, policy=SamplingPolicy(seed=rng.getrandbits(32))
            )
            trace = concretization_as_trace(rng, base_gt)
            if rng.random() < 0.7:
                trace = mutate_trace(rng, trace, rounds=rng.randint(1, 2))
            limits = GenerationLimits(
                max_loop_iterations=rng.randint(1, 4),
                max_trace_length=rng.randint(1, 12),
            )
            expected = outcome(interpret_then_cover, spec, trace, limits)
            assert outcome(accept, spec, trace, limits=limits) == expected, (
                f"{spec} on {render_trace(trace)} with {limits}"
            )
            seen.add(expected)
        # both verdicts came up, and the limits were hit
        assert {True, False, LimitExceededError} <= seen

    @pytest.mark.parametrize("valid", [True, False])
    def test_trace_length_limit_is_hit_where_interpret_hits_it(self, sum_spec, valid):
        last = "!10" if valid else "!11"
        trace = parse_trace(f"?4 !4 ?1 !3 ?2 ?3 ?4 {last} stop")
        length = len(interpret(sum_spec, trace.inputs()).steps)
        raised = []
        for max_length in range(1, length + 1):
            limits = GenerationLimits(max_trace_length=max_length)
            expected = outcome(interpret_then_cover, sum_spec, trace, limits)
            assert outcome(accept, sum_spec, trace, limits=limits) == expected
            if expected is LimitExceededError:
                raised.append(max_length)
        # the generalized trace is one input plus four rounds of an
        # optional count and a summand, then the sum: 10 steps, of which
        # the closing sum never counts against the limit
        assert length == 10 and raised == list(range(1, 9))
        assert accept(sum_spec, trace, limits=GenerationLimits(max_trace_length=9)) is valid

    @pytest.mark.parametrize("text, valid", [
        (SUM_SPEC_TEXT, "?3 !3 ?1 ?2 !1 ?3 !6 stop"),
        ("read x : ints\n" + "write { eps, 1 }\n" * 14, "?0 !1 !1 stop"),
        ("read x : ints\n" + "write { eps, x_C, x_C + 1 }\n" * 12, "?4 !4 !5 !4 stop"),
        ("write { 1 } write { eps, 2 } read x : ints write { x_C, 5 } write { x_C }",
         "!1 ?6 !5 !6 stop"),
        ("read x : ints write { x_C, 5 } write { eps, x_C, 5 }", "?5 !5 !5 stop"),
    ], ids=["sum", "skippable", "wide", "fixed", "shared"])
    def test_every_word_length_in_every_gap(self, text, valid):
        # accept builds the word's table inline for 0 and 1 values and
        # with a helper for more, and two terms of one write may take the
        # same value (shared): put words of 0, 1, 2 and 13 or more values
        # in each gap in turn, of a run with one write per gap (sum) or many
        spec = parse_spec(text)
        trace = parse_trace(valid)
        values = sorted({v for word in trace.gaps for v in word} | {0, 1, 99})
        words = [(), *[(v,) for v in values], *itertools.product(values[:5], repeat=2)]
        for a, b in itertools.product(values[:3], repeat=2):
            words += [(a,) * 13, (a, b) * 7, (a,) * 12 + (b,) * 3]
        seen = set()
        for k in range(len(trace.gaps)):
            for word in words:
                gaps = trace.gaps[:k] + (word,) + trace.gaps[k + 1:]
                changed = Trace._of(trace.input_values, gaps)
                expected = outcome(interpret_then_cover, spec, changed)
                assert outcome(accept, spec, changed) == expected, render_trace(changed)
                seen.add((min(len(word), 3), expected))
        # each length of word, and both verdicts, came up
        assert {length for length, _ in seen} == {0, 1, 2, 3}
        assert {verdict for _, verdict in seen} == {True, False}

    def test_every_small_spec_on_every_short_run(self):
        # Every spec of tests/smallspecs.py up to 3 statements whose only
        # fault, if any, is a use before a read, on every input sequence of
        # at most one input, with every trace of words of at most two
        # values: accept, covers∘interpret and _cover give one verdict or
        # raise one error, and the oracle gives that verdict, or False for
        # an error it stops short of.  Under a loop limit of 3 rounds.
        limits = GenerationLimits(max_loop_iterations=3)
        counts = dict.fromkeys(["specs", "ill-formed", "runs", "traces"], 0)
        seen = set()
        for spec in smallspecs.specs(3):
            if any(v.kind is not ViolationKind.USE_BEFORE_READ for v in well_formed(spec)):
                counts["ill-formed"] += 1
                continue
            counts["specs"] += 1
            for inputs in smallspecs.input_sequences(1):
                counts["runs"] += 1
                run = failure_or(interpret, spec, inputs, limits=limits)
                if isinstance(run, GeneralizedTrace):
                    gaps = run.gaps
                else:
                    gaps = ((),) * (len(inputs) + 1)
                for trace in smallspecs.traces(inputs, gaps, 2):
                    counts["traces"] += 1
                    verdict = failure_or(accept, spec, trace, limits=limits)
                    if isinstance(run, GeneralizedTrace):
                        covered = covers(run, normalize(trace))
                        assert covered == _cover(run, trace.input_values, trace.gaps)
                        expected = covered == Covered()
                    else:
                        expected = False if issubclass(run[0], InterpretError) else run
                    assert verdict == expected, (render_spec(spec), render_trace(trace))
                    reference = failure_or(oracle.accept, spec, trace, limits=limits)
                    assert reference == verdict or (
                        reference is False and isinstance(verdict, tuple)
                    ), (render_spec(spec), render_trace(trace))
                    seen.add(verdict if isinstance(verdict, bool) else verdict[0])
        assert counts == {"specs": 2761, "ill-formed": 1932, "runs": 13805, "traces": 130611}
        assert {True, False, UnboundCurrentError, LimitExceededError} <= seen

    def test_oracle_evaluates_terms_itself(self, monkeypatch):
        # a fault in the library's term compiler must not reach the oracle
        plus, _ = semantics._OPERATORS["+"]
        monkeypatch.setitem(semantics._OPERATORS, "+", (plus, "({} - {})"))
        spec = parse_spec("read x : ints\nwrite { x_C + 1 }\n")
        trace = parse_trace("?4 !5 stop")
        assert accept(spec, trace) is False
        assert oracle.accept(spec, trace) is True

    def test_unmutated_samples_always_accepted(self):
        rng = random.Random(7)
        for _ in range(100):
            spec = random_spec(rng, depth=3)
            gt = sample_generalized_trace(
                spec, policy=SamplingPolicy(seed=rng.getrandbits(32))
            )
            trace = concretization_as_trace(rng, gt)
            assert oracle.accept(spec, trace) is True
            assert accept(spec, trace) is True
