import copy
import pickle
import random

import pytest

from iospec import (
    AllVar,
    Apply,
    Branch,
    CurrentVar,
    DEFAULT_REGISTRY,
    EMPTY,
    ExplicitSet,
    Exit,
    FunctionSpec,
    IntConst,
    Integers,
    Naturals,
    ReadInput,
    Sort,
    SortError,
    Spec,
    TillExit,
    Violation,
    ViolationKind,
    WriteOutput,
    accept,
    node_at,
    normalize_spec,
    parse_trace,
    variables_of,
    well_formed,
)
from iospec.syntax import sort_of

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
        kinds = [v.kind for v in well_formed(Spec((loop,)))]
        assert kinds == [ViolationKind.MISSING_EXIT]

    def test_exit_in_nested_loop_does_not_count(self):
        inner = TillExit(Spec((Exit(),)))
        outer = TillExit(Spec((inner,)))
        kinds = [v.kind for v in well_formed(Spec((outer,)))]
        assert ViolationKind.MISSING_EXIT in kinds

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

    def test_spec_hash_is_kept_but_not_pickled(self):
        a = parse_spec(SUM_SPEC_TEXT)
        b = parse_spec(SUM_SPEC_TEXT)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(a)
        # the kept hash stays behind: string hashes differ between processes
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

    def test_equality_needs_the_same_class(self):
        assert CurrentVar("x") != AllVar("x")
        assert Integers() != Naturals()
        assert Integers() == Integers()
        assert IntConst(1) != 1 and not IntConst(1) == (1,)
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

    @pytest.mark.parametrize("build", [
        lambda: IntConst(),
        lambda: ReadInput("x"),
        lambda: IntConst(valu=1),
        lambda: IntConst(1, 2),
        lambda: IntConst(1, value=2),
        lambda: Exit(1),
        lambda: WriteOutput(includes_epsilon=True),
    ], ids=["missing", "missing-second", "unknown", "too-many", "twice", "no-fields",
            "missing-before-default"])
    def test_bad_arguments_are_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

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

    def test_match_takes_fields_by_position(self):
        assert Apply.__match_args__ == ("fn", "args")
        assert Exit.__match_args__ == ()
        match parse_spec("write { 1 + 2 }").actions[0]:
            case WriteOutput((Apply(fn, (IntConst(a), IntConst(b))),), eps):
                assert (fn, a, b, eps) == ("+", 1, 2, False)
            case _:
                pytest.fail("no case matched")

    def test_pickle_and_copy(self):
        nodes = list(subtree_nodes(parse_spec(SUM_SPEC_TEXT)))
        nodes += [ExplicitSet({1, 2}), Violation(ViolationKind.MISSING_EXIT, (1, "body"), "x")]
        for node in nodes:
            for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
                assert type(twin) is type(node)
                assert twin == node and hash(twin) == hash(node)
                assert repr(twin) == repr(node)

    def test_validators_still_fire(self):
        with pytest.raises(ValueError):
            ExplicitSet(())
        with pytest.raises(ValueError):
            WriteOutput(())
