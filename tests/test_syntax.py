import copy
import importlib
import pickle
import pkgutil
import random

import pytest

import iospec
from iospec import (
    AlignmentMismatch,
    AllVar,
    Apply,
    Branch,
    Covered,
    CurrentVar,
    DEFAULT_REGISTRY,
    EMPTY,
    ExitKind,
    ExplicitSet,
    Exit,
    FunctionSpec,
    GeneralizedTrace,
    GenerationLimits,
    In,
    IntConst,
    Integers,
    Naturals,
    Out,
    OutputMismatch,
    OutputWordSet,
    Read,
    ReadInput,
    RunOutcome,
    Sort,
    SortError,
    Spec,
    SubprocessConfig,
    TestConfig,
    TillExit,
    Trace,
    Verdict,
    Violation,
    ViolationKind,
    Write,
    WriteOutput,
    accept,
    node_at,
    normalize_spec,
    parse_generalized_trace,
    parse_trace,
    run_test_suite,
    variables_of,
    well_formed,
)
from iospec.harness import ConfigError
from iospec.parser import MAX_NESTING, SourceSpan, _scan, render_term
from iospec.syntax import SpecStructureError, _Record, sort_of, term_variables

import programs
from conftest import SUM_SPEC_TEXT
from randgen import random_spec
from iospec import parse_spec, render_spec

READ_X = ReadInput("x", Integers())
WRITE_XC = WriteOutput((CurrentVar("x"),))


def reassociate(rng, spec):
    """Random nesting/empty-segment insertion that normalization must undo."""
    items = []
    for action in spec.actions:
        if isinstance(action, Branch):
            action = Branch(
                action.condition,
                reassociate(rng, action.false_branch),
                reassociate(rng, action.true_branch),
            )
        elif isinstance(action, TillExit):
            action = TillExit(reassociate(rng, action.body))
        if rng.random() < 0.3:
            items.append(Spec(()))  # a neutral empty segment
        if rng.random() < 0.4:
            items.append(Spec((action,)))  # wrap into a nested sequence
        else:
            items.append(action)
    if len(items) > 1 and rng.random() < 0.5:
        cut = rng.randrange(1, len(items))
        return Spec((Spec(tuple(items[:cut])), Spec(tuple(items[cut:]))))
    return Spec(tuple(items))


class TestNormalize:
    def test_nested_sequences_flatten(self):
        s1, s2, s3 = READ_X, WRITE_XC, Exit()
        nested = Spec((s1, Spec((s2, s3))))
        assert normalize_spec(nested) == Spec((s1, s2, s3))

    def test_empty_segment_is_neutral(self):
        s = Spec((Spec(()), READ_X))
        assert normalize_spec(s) == Spec((READ_X,))
        assert normalize_spec(Spec((READ_X, Spec(())))) == Spec((READ_X,))

    def test_already_flat_unchanged(self):
        flat = Spec((READ_X, WRITE_XC))
        assert normalize_spec(flat) == flat
        assert len(flat) == 2 and list(flat) == [READ_X, WRITE_XC]

    def test_idempotent_on_random_specs(self):
        rng = random.Random(2024)
        for _ in range(100):
            spec = random_spec(rng)
            once = normalize_spec(reassociate(rng, spec))
            assert normalize_spec(once) == once

    def test_acceptance_invariant_under_normalization(self, sum_spec):
        rng = random.Random(11)
        trace = parse_trace("?2 ?5 ?3 !8 stop")
        for _ in range(25):
            messy = reassociate(rng, sum_spec)
            assert accept(normalize_spec(messy), trace) is True

    def test_acceptance_invariant_on_random_specs(self):
        from iospec import SamplingPolicy, sample_generalized_trace
        from randgen import concretization_as_trace, mutate_trace

        rng = random.Random(103)
        for _ in range(60):
            spec = random_spec(rng, depth=3)
            gt = sample_generalized_trace(
                spec, policy=SamplingPolicy(seed=rng.getrandbits(32))
            )
            trace = concretization_as_trace(rng, gt)
            if rng.random() < 0.5:
                trace = mutate_trace(rng, trace)
            verdict = accept(spec, trace)
            for _ in range(3):
                messy = normalize_spec(reassociate(rng, spec))
                assert accept(messy, trace) == verdict


class TestHandBuiltNesting:
    """Nested ``Spec`` items are spliced when built, so every walk sees them."""

    def test_constructor_splices_nested_sequences(self):
        nested = Spec((READ_X, Spec((WRITE_XC, Spec(()))), Spec(())))
        assert nested.actions == (READ_X, WRITE_XC)

    def test_use_before_read_inside_nested_sequence(self):
        violations = well_formed(Spec((Spec((WRITE_XC,)),)))
        assert [v.kind for v in violations] == [ViolationKind.USE_BEFORE_READ]

    def test_exit_in_nested_sequence_binds_the_loop(self):
        loop = TillExit(Spec((READ_X, Spec((Exit(),)))))
        kinds = [v.kind for v in well_formed(Spec((loop,)))]
        assert ViolationKind.MISSING_EXIT not in kinds

    def test_variables_of_nested_sequence(self):
        assert variables_of(Spec((Spec((WRITE_XC,)),))) == {"x"}

    def test_render_nested_sequence_reparses_flat(self):
        nested = Spec((READ_X, Spec((WRITE_XC,))))
        assert parse_spec(render_spec(nested)) == Spec((READ_X, WRITE_XC))


def deep_term(levels: int):
    term = CurrentVar("x")
    for _ in range(levels):
        term = Apply("+", (term, IntConst(1)))
    return term


def deep_spec(kind: str, levels: int) -> Spec:
    """A well-formed tree `levels` levels deep: a write term of that many
    `+`, or that many `if` or `loop` blocks around a write."""
    if kind == "term":
        return Spec((READ_X, WriteOutput((deep_term(levels),))))
    body = Spec((WRITE_XC,))
    for _ in range(levels):
        if kind == "if":
            body = Spec((Branch(Apply("==", (IntConst(0), IntConst(0))), EMPTY, body),))
        else:
            body = Spec((TillExit(Spec((*body.actions, Exit()))),))
    return Spec((READ_X, *body.actions))


class TestHandBuiltDepth:
    """Every walk over a hand-built tree raises SpecStructureError past
    MAX_NESTING, as the interpreters do, not RecursionError; 3,000 levels
    pass Python's recursion limit."""

    PAST = (MAX_NESTING + 1, 3000)

    @pytest.mark.parametrize("kind", ["term", "if", "loop"])
    def test_well_formed(self, kind):
        assert well_formed(deep_spec(kind, MAX_NESTING)) == []
        for levels in self.PAST:
            with pytest.raises(SpecStructureError, match=f"nested more than {MAX_NESTING} levels deep"):
                well_formed(deep_spec(kind, levels))

    @pytest.mark.parametrize("kind", ["term", "if", "loop"])
    def test_render_spec(self, kind):
        spec = deep_spec(kind, MAX_NESTING)
        assert parse_spec(render_spec(spec)) == spec
        for levels in self.PAST:
            with pytest.raises(SpecStructureError, match=f"nested more than {MAX_NESTING} levels deep"):
                render_spec(deep_spec(kind, levels))

    @pytest.mark.parametrize("kind", ["term", "if", "loop"])
    def test_variables_of(self, kind):
        assert variables_of(deep_spec(kind, MAX_NESTING)) == {"x"}
        for levels in self.PAST:
            with pytest.raises(SpecStructureError, match=f"nested more than {MAX_NESTING} levels deep"):
                variables_of(deep_spec(kind, levels))

    def test_sort_of(self):
        assert sort_of(deep_term(MAX_NESTING)) == Sort.INT
        for levels in self.PAST:
            with pytest.raises(SpecStructureError, match=f"nested more than {MAX_NESTING} levels deep"):
                sort_of(deep_term(levels))

    def test_term_variables(self):
        assert term_variables(deep_term(MAX_NESTING)) == ("x",)
        for levels in self.PAST:
            with pytest.raises(SpecStructureError, match=f"nested more than {MAX_NESTING} levels deep"):
                term_variables(deep_term(levels))

    def test_render_term(self):
        assert render_term(deep_term(MAX_NESTING)) == "x_C" + " + 1" * MAX_NESTING
        for levels in self.PAST:
            with pytest.raises(SpecStructureError, match=f"nested more than {MAX_NESTING} levels deep"):
                render_term(deep_term(levels))


class TestWellFormed:
    def test_running_example_is_clean(self):
        assert well_formed(parse_spec(SUM_SPEC_TEXT)) == []

    def test_use_before_read(self):
        violations = well_formed(Spec((WRITE_XC,)))
        assert [v.kind for v in violations] == [ViolationKind.USE_BEFORE_READ]
        assert "x" in violations[0].detail

    def test_read_before_use_is_fine(self):
        assert well_formed(Spec((READ_X, WRITE_XC))) == []

    def test_sibling_branch_read_counts(self):
        # conservative approximation: the false branch's read legitimizes
        # a use in the true branch
        branch = Branch(
            Apply("==", (IntConst(0), IntConst(0))),
            Spec((READ_X,)),
            Spec((WRITE_XC,)),
        )
        assert well_formed(Spec((branch,))) == []

    def test_missing_exit(self):
        loop = TillExit(Spec((READ_X,)))
        found = [(v.kind, v.path) for v in well_formed(Spec((loop,)))]
        assert found == [(ViolationKind.MISSING_EXIT, (0,))]

    def test_exit_in_nested_loop_does_not_count(self):
        inner = TillExit(Spec((Exit(),)))
        outer = TillExit(Spec((inner,)))
        found = [(v.kind, v.path) for v in well_formed(Spec((outer,)))]
        assert found == [(ViolationKind.MISSING_EXIT, (0,))]
        # each loop's missing exit comes before what its body holds
        inner = TillExit(Spec((WRITE_XC,)))
        outer = TillExit(Spec((inner,)))
        found = [(v.kind, v.path) for v in well_formed(Spec((outer,)))]
        assert found == [
            (ViolationKind.MISSING_EXIT, (0,)),
            (ViolationKind.MISSING_EXIT, (0, "body", 0)),
            (ViolationKind.USE_BEFORE_READ, (0, "body", 0, "body", 0)),
        ]

    def test_exit_under_branch_counts(self):
        body = Branch(
            Apply("==", (IntConst(0), IntConst(0))),
            Spec((READ_X,)),
            Spec((Exit(),)),
        )
        assert well_formed(Spec((TillExit(Spec((body,))),))) == []

    def test_orphan_exit(self):
        kinds = [v.kind for v in well_formed(Spec((Exit(),)))]
        assert kinds == [ViolationKind.ORPHAN_EXIT]

    def test_sort_error_in_condition(self):
        bad = Branch(IntConst(1), EMPTY, EMPTY)  # int where bool is needed
        kinds = [v.kind for v in well_formed(Spec((bad,)))]
        assert kinds == [ViolationKind.SORT_ERROR]

    def test_unknown_function(self):
        bad = WriteOutput((Apply("frobnicate", (IntConst(1),)),))
        violations = well_formed(Spec((bad,)))
        assert violations[0].kind == ViolationKind.SORT_ERROR
        assert "frobnicate" in violations[0].detail

    def test_paths_resolve_to_existing_nodes(self):
        rng = random.Random(5)
        seen = 0
        for _ in range(200):
            spec = random_spec(rng)
            # break the spec: drop a variable's read by renaming all reads
            for v in well_formed(spec):
                node_at(spec, v.path)  # must not raise
                seen += 1
        # random specs are well-formed by construction
        assert seen == 0

    def test_violation_path_points_at_offender(self):
        spec = Spec((READ_X, TillExit(Spec((Branch(
            Apply("==", (IntConst(0), IntConst(0))),
            Spec((WriteOutput((CurrentVar("y"),)),)),
            Spec((Exit(),)),
        ),)))))
        violations = well_formed(spec)
        assert len(violations) == 1
        node = node_at(spec, violations[0].path)
        assert node == WriteOutput((CurrentVar("y"),))
        assert node_at(spec, (1, "body", 0, "true", 0)) == Exit()
        with pytest.raises(KeyError, match="bad path step"):
            node_at(spec, (1, "else"))

    def test_generated_specs_are_well_formed(self):
        rng = random.Random(99)
        for _ in range(300):
            assert well_formed(random_spec(rng)) == []


class TestVariablesOf:
    def test_running_example(self, sum_spec):
        assert variables_of(sum_spec) == {"n", "x"}

    def test_empty(self):
        assert variables_of(EMPTY) == set()

    def test_single_variable(self):
        spec = Spec((ReadInput("a", Integers()), WriteOutput((CurrentVar("a"),))))
        assert variables_of(spec) == {"a"}


class TestRegistry:
    def test_builtin_sorts(self):
        assert sort_of(Apply("sum", (AllVar("x"),))) == Sort.INT
        assert sort_of(Apply("<", (IntConst(1), IntConst(2)))) == Sort.BOOL
        assert sort_of(AllVar("x")) == Sort.INT_LIST

    def test_arity_mismatch(self):
        with pytest.raises(SortError):
            sort_of(Apply("sum", (AllVar("x"), AllVar("y"))))

    def test_argument_sort_mismatch(self):
        with pytest.raises(SortError):
            sort_of(Apply("+", (AllVar("x"), IntConst(1))))
        with pytest.raises(SortError, match="not a term"):
            sort_of(object())

    def test_extension(self):
        doubled = FunctionSpec("double", (Sort.INT,), Sort.INT, lambda v: 2 * v)
        registry = DEFAULT_REGISTRY.extended(doubled)
        assert sort_of(Apply("double", (IntConst(3),)), registry) == Sort.INT
        assert "double" not in DEFAULT_REGISTRY

    def test_registry_is_open_but_default_untouched(self):
        assert "sum" in DEFAULT_REGISTRY
        extended = DEFAULT_REGISTRY.extended(
            FunctionSpec("sum", (Sort.INT_LIST,), Sort.INT, lambda xs: 0)
        )
        assert extended.lookup("sum").fn([1, 2]) == 0
        assert DEFAULT_REGISTRY.lookup("sum").fn([1, 2]) == 3


class TestConstructors:
    def test_write_needs_a_real_term(self):
        with pytest.raises(ValueError):
            WriteOutput((), includes_epsilon=True)

    def test_write_dedupes_terms(self):
        w = WriteOutput((IntConst(1), IntConst(1), IntConst(2)))
        assert w.terms == (IntConst(1), IntConst(2))

    def test_explicit_set_must_be_non_empty(self):
        with pytest.raises(ValueError):
            ExplicitSet(frozenset())

    def test_domain_membership(self):
        assert Integers().contains(-7)
        assert Naturals().contains(0)
        assert not Naturals().contains(-1)
        assert ExplicitSet(frozenset({1, 3})).contains(3)
        assert not ExplicitSet(frozenset({1, 3})).contains(2)

    def test_equal_specs_hash_equal_and_copies_carry_fields_only(self):
        a = parse_spec(SUM_SPEC_TEXT)
        b = parse_spec(SUM_SPEC_TEXT)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(a)
        # a pickle or copy holds the one field, and nothing else kept on `a`
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert vars(twin) == {"actions": a.actions}
            assert twin == a and hash(twin) == hash(a)


# The parsed `sum.iospec`: each node's class and every field by keyword,
# as `dataclasses` prints them.
SUM_SPEC_REPR = (
    "Spec(actions=(ReadInput(var='n', domain=Naturals()), TillExit(body=Spec(actions=("
    "Branch(condition=Apply(fn='==', args=(Apply(fn='len', args=(AllVar(name='x'),)), "
    "CurrentVar(name='n'))), false_branch=Spec(actions=(WriteOutput(terms=("
    "Apply(fn='-', args=(CurrentVar(name='n'), Apply(fn='len', args=(AllVar(name='x'),)))),"
    "), includes_epsilon=True), ReadInput(var='x', domain=Integers()))), "
    "true_branch=Spec(actions=(Exit(),))),))), WriteOutput(terms=("
    "Apply(fn='sum', args=(AllVar(name='x'),)),), includes_epsilon=False)))"
)


def subtree_nodes(node):
    """`node` and every node below it, in pre-order."""
    yield node
    for name in node.__match_args__:
        value = getattr(node, name)
        for item in value if isinstance(value, tuple) else (value,):
            if hasattr(item, "__match_args__"):
                yield from subtree_nodes(item)


class TestFrozenRecords:
    def test_repr_shows_every_field_by_name(self):
        assert repr(parse_spec(SUM_SPEC_TEXT)) == SUM_SPEC_REPR
        assert repr(ExplicitSet({2})) == "ExplicitSet(values=frozenset({2}))"
        assert repr(Violation(ViolationKind.ORPHAN_EXIT, (0,))) == (
            "Violation(kind=<ViolationKind.ORPHAN_EXIT: 'orphan-exit'>, path=(0,), detail='')"
        )
        assert repr(In(value=3)) == "In(value=3)" and repr(Out(-1)) == "Out(value=-1)"
        assert repr(Read()) == "Read()" and repr(Covered()) == "Covered()"
        assert repr(GenerationLimits(7)) == (
            "GenerationLimits(max_loop_iterations=7, max_trace_length=10000)"
        )

    def test_equality_needs_the_same_class(self):
        assert CurrentVar("x") != AllVar("x")
        assert Integers() != Naturals()
        assert Integers() == Integers()
        assert IntConst(1) != 1 and not IntConst(1) == (1,)
        assert In(1) != Out(1) and In(1) != IntConst(1) and Write(1) == Write(value=1)
        assert Read() == Read() and hash(Covered()) == hash(Covered())
        assert Apply("+", [IntConst(1)]) == Apply("+", (IntConst(1),))

    def test_equal_nodes_hash_equal(self):
        a = list(subtree_nodes(parse_spec(SUM_SPEC_TEXT)))
        b = list(subtree_nodes(parse_spec(SUM_SPEC_TEXT)))
        assert len(a) == 23
        for x, y in zip(a, b):
            assert x == y and x is not y
            assert hash(x) == hash(y)
        assert hash(Exit()) == hash(Exit())

    def test_construction(self):
        one = (IntConst(1),)
        assert WriteOutput(one) == WriteOutput(one, False) == WriteOutput(terms=one)
        assert WriteOutput(one, includes_epsilon=True).includes_epsilon
        assert WriteOutput(includes_epsilon=True, terms=one) == WriteOutput(one, True)
        assert Spec() == EMPTY and Spec().actions == ()
        assert Violation(ViolationKind.ORPHAN_EXIT, (0,)).detail == ""
        assert IntConst(value=3).value == 3
        trace = Trace((In(1), Out(1)))
        outcome = RunOutcome(trace, ExitKind.CLEAN_HALT)
        assert outcome == RunOutcome(exit_kind=ExitKind.CLEAN_HALT, trace=trace, detail="")
        assert (outcome.detail, outcome.exit_code, outcome.stderr) == ("", None, "")
        assert outcome.clean and outcome.consumed_inputs == 1
        config = TestConfig()
        assert (config.num_tests, config.max_generation_attempts) == (100, 10)
        assert config.limits == GenerationLimits(1000, 10000)
        assert TestConfig(num_tests=1) == TestConfig(1, config.policy, config.limits, 10)
        assert SubprocessConfig("prog", ["-c", "x"]).args == ("-c", "x")

    @pytest.mark.parametrize("build", [
        lambda: IntConst(),
        lambda: ReadInput("x"),
        lambda: IntConst(valu=1),
        lambda: IntConst(1, 2),
        lambda: IntConst(1, value=2),
        lambda: Exit(1),
        lambda: WriteOutput(includes_epsilon=True),
        lambda: Read(1),
        lambda: Write(),
        lambda: RunOutcome(Trace()),
        lambda: RunOutcome(Trace(), ExitKind.CRASHED, kind=ExitKind.CRASHED),
        lambda: TestConfig(tests=1),
        lambda: TestConfig(1, num_tests=1),
        lambda: GenerationLimits(1, 2, 3),
        lambda: SubprocessConfig("/bin/echo", "12"),
        lambda: SubprocessConfig("/bin/echo", b"12"),
    ], ids=["missing", "missing-second", "unknown", "too-many", "twice", "no-fields",
            "missing-before-default", "read-no-fields", "write-missing",
            "outcome-missing-kind", "outcome-unknown", "config-unknown", "config-twice",
            "limits-too-many", "args-one-string", "args-one-bytes"])
    def test_bad_arguments_are_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_a_record_class_gets_its_init_from_its_fields(self):
        assert GenerationLimits.__init__.__qualname__ == "GenerationLimits.__init__"
        with pytest.raises(TypeError, match="defines __init__"):
            class Direct(_Record):
                value: int

                def __init__(self, value):
                    pass

                def __post_init__(self):
                    pass

        # a class with its own __init__ keeps it and gets the generated `_of`
        class Doubled(_Record):
            value: int

            def __init__(self, value):
                self.__dict__["value"] = 2 * value

        assert Doubled(2).value == 4 and Doubled._of(2).value == 2
        assert Doubled._of(value=2) == Doubled(1) and Doubled.__match_args__ == ("value",)
        with pytest.raises(AttributeError):
            Doubled(1).value = 3
        assert Trace.__match_args__ == GeneralizedTrace.__match_args__ == ("input_values", "gaps")
        assert OutputWordSet.__match_args__ == ("factors",)
        for cls in (Trace, GeneralizedTrace, OutputWordSet):
            assert cls._of.__qualname__ == f"{cls.__name__}._of"
            assert cls._of.__code__.co_filename == "<string>"  # generated, not written
        with pytest.raises(TypeError, match="without a default"):
            class Misordered(_Record):
                first: int = 0
                second: int

    def test_fields_cannot_change(self):
        node = Apply("+", (IntConst(1), IntConst(2)))
        with pytest.raises(AttributeError):
            node.fn = "-"
        with pytest.raises(AttributeError):
            del node.fn
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            EMPTY.actions = ()
        assert node == Apply("+", (IntConst(1), IntConst(2)))
        config = TestConfig()
        with pytest.raises(AttributeError):
            config.num_tests = 5
        with pytest.raises(AttributeError):
            In(1).value = 2
        with pytest.raises(AttributeError):
            del RunOutcome(Trace(), ExitKind.CRASHED).detail
        assert config.num_tests == 100
        trace = parse_trace("?1 !2 ?3 stop")
        gt = parse_generalized_trace("?1 !{eps, 2}{3} ?3 stop")
        allowed = OutputWordSet({(1,)}, {(), (2,)})
        before = hash(allowed)
        for value in (trace, gt, allowed):
            for name in value.__match_args__:
                with pytest.raises(AttributeError):
                    setattr(value, name, ())
                with pytest.raises(AttributeError):
                    delattr(value, name)
            with pytest.raises(AttributeError):
                value.extra = 1
        assert trace == parse_trace("?1 !2 ?3 stop")
        assert gt.gaps[1] == (frozenset({(), (2,)}), frozenset({(3,)}))
        assert allowed.factors == (frozenset({(1,)}), frozenset({(), (2,)}))
        assert not allowed.includes_epsilon and hash(allowed) == before

    def test_match_takes_fields_by_position(self):
        assert Apply.__match_args__ == ("fn", "args")
        assert Exit.__match_args__ == ()
        match parse_spec("write { 1 + 2 }").actions[0]:
            case WriteOutput((Apply(fn, (IntConst(a), IntConst(b))),), eps):
                assert (fn, a, b, eps) == ("+", 1, 2, False)
            case _:
                pytest.fail("no case matched")
        allowed = OutputWordSet({(1,)})
        match OutputMismatch((0,), allowed, 2):
            case OutputMismatch(word, words, position):
                assert (word, words, position) == ((0,), allowed, 2)
            case _:
                pytest.fail("no case matched")

    def test_pickle_and_copy(self):
        nodes = list(subtree_nodes(parse_spec(SUM_SPEC_TEXT)))
        nodes += [ExplicitSet({1, 2}), Violation(ViolationKind.MISSING_EXIT, (1, "body"), "x")]
        report = run_test_suite(parse_spec(SUM_SPEC_TEXT), programs.sum_drops_last)
        assert report.verdict is Verdict.FALSIFIED
        assert isinstance(report.counterexample.error, OutputMismatch)
        nodes += [report, report.counterexample, report.counterexample.error]
        allowed = OutputWordSet({(), (1,)}, {(2,), (3, 4)})
        assert hash(allowed) and len(allowed.words) == 4  # pickled with its caches filled
        nodes += [
            parse_trace("?1 !2 !3 ?4 stop"),
            parse_generalized_trace("?1 !{eps, 2}{3} ?4 stop"),
            allowed,
            OutputWordSet({(5,)}),
            IntConst(3), In(1), Out(2), Covered(), AlignmentMismatch(In(1), None, 0),
            Read(), Write(3), RunOutcome(Trace((In(1),)), ExitKind.CRASHED, "x", 3, "err"),
            SubprocessConfig("prog", ["-c"]), TestConfig(), GenerationLimits(7),
            DEFAULT_REGISTRY.lookup("+"), _scan("x")[0], SourceSpan(1, 2, 1, 3),
        ]
        # every record class the package defines has a sample above
        for module in pkgutil.iter_modules(iospec.__path__):
            if module.name != "__main__":
                importlib.import_module(f"iospec.{module.name}")
        covered = {cls for node in nodes for cls in type(node).__mro__}
        records, unseen = [], [_Record]
        while unseen:
            cls = unseen.pop()
            records.append(cls)
            unseen += cls.__subclasses__()
        assert {cls for cls in records if cls.__module__.startswith("iospec.")} <= covered
        for node in nodes:
            for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
                assert type(twin) is type(node)
                assert set(vars(twin)) == set(node.__match_args__)
                assert twin == node and hash(twin) == hash(node)
                assert repr(twin) == repr(node)

    def test_validators_still_fire(self):
        with pytest.raises(ValueError):
            ExplicitSet(())
        with pytest.raises(ValueError):
            WriteOutput(())
        with pytest.raises(ValueError):
            GenerationLimits(0)
        with pytest.raises(ConfigError):
            TestConfig(num_tests=0)
