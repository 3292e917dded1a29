import pytest
from hypothesis import given, strategies as st

from iospec import (
    DEFAULT_REGISTRY,
    AllVar,
    Apply,
    CurrentVar,
    EvalError,
    FunctionSpec,
    IntConst,
    Sort,
    UnboundCurrentError,
    WriteOutput,
    eval_output_set,
    eval_term,
    interpret,
    parse_spec,
    render_trace,
)
from iospec.environment import Emitter

SUM_ALL_X = Apply("sum", (AllVar("x"),))


def test_store_appends_chronologically():
    env = {"x": [5, 3]}
    assert eval_term(AllVar("x"), env) == [5, 3]
    assert eval_term(CurrentVar("x"), env) == 3


def test_store_leaves_other_variables_alone():
    env = {"x": [7]}
    assert eval_term(AllVar("y"), env) == []


def test_first_store_sets_current_and_history():
    env = {"n": [2]}
    assert eval_term(CurrentVar("n"), env) == 2
    assert eval_term(AllVar("n"), env) == [2]


def test_sum_over_history():
    env = {"x": [5, 3]}
    assert eval_term(SUM_ALL_X, env) == 8


def test_all_of_unread_variable_is_empty_list():
    assert eval_term(AllVar("x"), {}) == []


def test_current_of_unread_variable_fails():
    with pytest.raises(UnboundCurrentError):
        eval_term(CurrentVar("x"), {})
    with pytest.raises(UnboundCurrentError):
        eval_term(CurrentVar("x"), {"x": []})


def test_branching_condition_example():
    env = {"n": [2], "x": [5, 3]}
    cond = Apply("==", (Apply("len", (AllVar("x"),)), CurrentVar("n")))
    assert eval_term(cond, env) is True


def test_unknown_function():
    with pytest.raises(EvalError):
        eval_term(Apply("nope", (IntConst(1),)), {})


def test_arbitrary_precision():
    env = {"x": [10**30] * 5}
    assert eval_term(SUM_ALL_X, env) == 5 * 10**30


def test_mutating_function_leaves_history_alone():
    # histories are mutable lists, so a registry function must only ever
    # see a copy
    pop = FunctionSpec("pop", (Sort.INT_LIST,), Sort.INT, lambda xs: xs.pop())
    registry = DEFAULT_REGISTRY.extended(pop)
    env = {"x": [5, 3]}
    assert eval_term(Apply("pop", (AllVar("x"),)), env, registry) == 3
    assert env == {"x": [5, 3]}
    assert eval_term(CurrentVar("x"), env, registry) == 3


def test_overriding_len_still_gets_a_copy():
    # the default len reads the stored history in place; an override of the
    # same name is another function and must not see the history itself
    calls = []

    def clearing_len(xs):
        calls.append(list(xs))
        xs.clear()
        return 0

    registry = DEFAULT_REGISTRY.extended(
        FunctionSpec("len", (Sort.INT_LIST,), Sort.INT, clearing_len)
    )
    env = {"x": [5, 3]}
    assert eval_term(Apply("len", (AllVar("x"),)), env, registry) == 0
    assert calls == [[5, 3]]
    assert env == {"x": [5, 3]}
    assert eval_term(Apply("len", (AllVar("x"),)), env) == 2


class TestOperators:
    def test_default_operators_are_inlined(self):
        # the default registry's own entries become Python operators
        emitter = Emitter(DEFAULT_REGISTRY)
        one, two = IntConst(1), IntConst(2)
        for name, symbol in [("+", "+"), ("-", "-"), ("*", "*"), ("==", "=="),
                             ("<", "<"), ("<=", "<="), (">", ">"), (">=", ">=")]:
            assert emitter.term(Apply(name, (one, two))).split()[1] == symbol
            assert eval_term(Apply(name, (one, two)), {}) == (
                DEFAULT_REGISTRY.lookup(name).fn(1, 2))
        assert emitter.term(Apply("not", (Apply("<", (one, two)),))).startswith("(not ")
        assert eval_term(Apply("not", (Apply("<", (one, two)),)), {}) is False
        # `and` and `or` stay calls, and so does a call of the wrong arity
        assert "and" not in emitter.term(Apply("and", (Apply("<", (one, two)),) * 2))
        with pytest.raises(TypeError):
            eval_term(Apply("+", (one,)), {})

    def test_overriding_an_operator_still_calls_it(self):
        calls = []

        def minus(a, b):
            calls.append((a, b))
            return a + b

        registry = DEFAULT_REGISTRY.extended(
            FunctionSpec("-", (Sort.INT, Sort.INT), Sort.INT, minus)
        )
        term = Apply("-", (CurrentVar("x"), IntConst(2)))
        assert eval_term(term, {"x": [5]}, registry) == 7
        assert calls == [(5, 2)]
        assert eval_term(term, {"x": [5]}) == 3

    def test_conjunction_evaluates_both_operands(self):
        # `1 > 2` is false, but x was never read: the right operand still
        # raises, as it did when every operator was a call
        spec = parse_spec(
            "read c : ints\n"
            "if c_C == 1 then { read x : ints } else { write { 0 } }\n"
            "if 1 > 2 && x_C == 0 then { write { 1 } } else { write { 2 } }\n"
        )
        with pytest.raises(UnboundCurrentError):
            interpret(spec, [0])
        assert render_trace(interpret(spec, [1, 5])) == "?1 ?5 !{2} stop"


class TestOutputSet:
    def test_optional_countdown(self):
        env = {"n": [3]}
        theta = WriteOutput(
            (Apply("-", (CurrentVar("n"), Apply("len", (AllVar("x"),)))),),
            includes_epsilon=True,
        )
        assert eval_output_set(theta, env).words == frozenset({(), (3,)})

    def test_sum_output(self):
        env = {"x": [5, 3]}
        assert eval_output_set(WriteOutput((SUM_ALL_X,)), env).words == {(8,)}

    def test_duplicate_values_collapse(self):
        theta = WriteOutput(
            (IntConst(0), Apply("+", (IntConst(0), IntConst(0)))),
            includes_epsilon=True,
        )
        words = eval_output_set(theta, {}).words
        assert words == frozenset({(), (0,)})

    def test_propagates_unbound_current(self):
        theta = WriteOutput((CurrentVar("x"),))
        with pytest.raises(UnboundCurrentError):
            eval_output_set(theta, {})


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=20))
def test_current_is_last_of_all(values):
    env = {"x": values}
    assert eval_term(CurrentVar("x"), env) == eval_term(AllVar("x"), env)[-1]


@given(st.lists(st.integers(), max_size=10))
def test_evaluation_is_deterministic(values):
    env = {"x": values}
    assert eval_term(SUM_ALL_X, env) == eval_term(SUM_ALL_X, env)
