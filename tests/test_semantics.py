import random
import time

import pytest

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
    GenerationFailureError,
    GenerationLimits,
    InputRejectedError,
    InputsExhaustedError,
    IntConst,
    InterpretError,
    Integers,
    LimitExceededError,
    OutputWordSet,
    ReadInput,
    SamplingPolicy,
    Sort,
    Spec,
    SurplusInputsError,
    TillExit,
    Trace,
    UnboundCurrentError,
    WriteOutput,
    accept,
    covers,
    eval_term,
    interpret,
    normalize,
    normalize_spec,
    parse_spec,
    parse_trace,
    render_spec,
    render_trace,
    sample_generalized_trace,
    well_formed,
)

from iospec.parser import MAX_NESTING
from iospec.semantics import SpecStructureError

import oracle
from conftest import STUCK_SPEC
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
    inputs before it checks any output gap, so errors of
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

        # every way of building an output set stores its factors
        factors = {}
        monkeypatch.setattr(OutputWordSet, "factors", property(
            lambda s: factors[id(s)], lambda s, value: factors.__setitem__(id(s), value)))
        ins = []
        monkeypatch.setattr(In, "__init__", lambda s, value: ins.append(value))
        assert accept(sum_spec, valid, limits=limits) is True
        assert accept(sum_spec, invalid, limits=limits) is False
        gt = interpret(sum_spec, inputs, limits=limits)
        assert covers(gt, normalize(valid)) == Covered()
        assert factors == {} and ins == []
        result = covers(gt, normalize(invalid))
        assert (result.word, result.position) == ((sum(range(n)) + 1,), n + 1 + n // 2)
        assert len(factors) == 1 and ins == []

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

    def test_input_rejected(self, sum_spec):
        with pytest.raises(InputRejectedError) as exc:
            interpret(sum_spec, [-3])
        assert exc.value.position == 0
        assert exc.value.value == -3

    def test_inputs_exhausted(self, sum_spec):
        with pytest.raises(InputsExhaustedError):
            interpret(sum_spec, [2, 5])

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
        env = {name: [i] for i, name in enumerate(names)}
        for i, name in enumerate(names):
            assert eval_term(CurrentVar(name), env) == i
            assert eval_term(AllVar(name), env) == [i]

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
            eval_term(Apply(quoted, (IntConst(1),)), {})
        spec = Spec((
            ReadInput("x", Integers()),
            WriteOutput((Apply(quoted, (CurrentVar("x"),)),)),
        ))
        assert render_trace(interpret(spec, [4], registry)) == "?4 !{-4} stop"
        assert eval_term(Apply(quoted, (IntConst(2),)), {}, registry) == -2

    @pytest.mark.parametrize("kind", ["if", "loop", "term"])
    def test_nesting_past_the_limit_is_a_structure_error(self, kind):
        def nested(levels):
            if kind == "term":
                term = CurrentVar("x")
                for _ in range(levels):
                    term = Apply("+", (term, IntConst(1)))
                return Spec((ReadInput("x", Integers()), WriteOutput((term,))))
            body = Spec((WriteOutput((CurrentVar("x"),)),))
            for _ in range(levels):
                if kind == "if":
                    body = Spec((Branch(ALWAYS, EMPTY, body),))
                else:
                    body = Spec((TillExit(Spec((*body.actions, Exit()))),))
            return Spec((ReadInput("x", Integers()), *body.actions))

        assert len(interpret(nested(MAX_NESTING), [1]).steps) == 2
        for levels in (MAX_NESTING + 1, MAX_NESTING + 5):
            with pytest.raises(SpecStructureError, match=f"more than {MAX_NESTING} levels"):
                interpret(nested(levels), [1])
            with pytest.raises(SpecStructureError):
                accept(nested(levels), parse_trace("?1 !1 stop"))


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
        with pytest.raises(ValueError):
            SamplingPolicy(integer_range=(5, 4))
        with pytest.raises(ValueError):
            SamplingPolicy(natural_range=(-1, 5))


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


class TestEquivalence:
    """Three deciders of trace acceptance agree: the backtracking oracle,
    the library `accept` (which runs the whole specification on the
    trace's inputs and then checks each output gap), and
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
        import itertools

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
