"""Term evaluation over variable histories, as the compiled run does it.

Each check first runs reads that give each variable its history (a dict
from variable name to its values, oldest first), then writes its int terms
or branches on its bool term, so every value comes out of the code
`semantics` generates for the specification through `interpret`.
"""

import pytest
from hypothesis import given, strategies as st

from iospec import (
    DEFAULT_REGISTRY,
    AllVar,
    Apply,
    Branch,
    CurrentVar,
    EvalError,
    FunctionSpec,
    IntConst,
    Integers,
    ReadInput,
    Sort,
    Spec,
    UnboundCurrentError,
    WriteOutput,
    interpret,
    parse_spec,
    render_trace,
)
from iospec.semantics import _Compiler

SUM_ALL_X = Apply("sum", (AllVar("x"),))

# Shows a whole history in one written value.
WITH_HISTORY = DEFAULT_REGISTRY.extended(
    FunctionSpec("history", (Sort.INT_LIST,), Sort.INT, tuple)
)


def history(name: str) -> Apply:
    return Apply("history", (AllVar(name),))


def last_set(env: dict, actions, registry=DEFAULT_REGISTRY):
    """The output set that ends the run of `actions` after reading every
    history of `env`."""
    reads = tuple(
        ReadInput(name, Integers()) for name, values in env.items() for _ in values
    )
    inputs = [value for values in env.values() for value in values]
    return interpret(Spec((*reads, *actions)), inputs, registry).steps[-1]


def written(env: dict, *terms, registry=DEFAULT_REGISTRY) -> list:
    """The values of the int terms, written one after another."""
    writes = [WriteOutput((term,)) for term in terms]
    return [value for ((value,),) in last_set(env, writes, registry).factors]


def value(env: dict, term, registry=DEFAULT_REGISTRY):
    (result,) = written(env, term, registry=registry)
    return result


def chosen(env: dict, condition, registry=DEFAULT_REGISTRY) -> bool:
    """The value of the bool term, as the arm of a branch it takes."""
    true, false = [Spec((WriteOutput((IntConst(taken),)),)) for taken in (1, 0)]
    branch = Branch(condition, true_branch=true, false_branch=false)
    (((taken,),),) = last_set(env, [branch], registry).factors
    return taken == 1


def test_store_appends_chronologically():
    env = {"x": [5, 3]}
    assert value(env, history("x"), WITH_HISTORY) == (5, 3)
    assert value(env, CurrentVar("x")) == 3


def test_store_leaves_other_variables_alone():
    env = {"x": [7]}
    assert value(env, history("y"), WITH_HISTORY) == ()


def test_first_store_sets_current_and_history():
    env = {"n": [2]}
    assert value(env, CurrentVar("n")) == 2
    assert value(env, history("n"), WITH_HISTORY) == (2,)


def test_sum_over_history():
    env = {"x": [5, 3]}
    assert value(env, SUM_ALL_X) == 8


def test_all_of_unread_variable_is_empty_list():
    assert value({}, history("x"), WITH_HISTORY) == ()
    assert written({}, SUM_ALL_X, Apply("len", (AllVar("x"),))) == [0, 0]


def test_current_of_unread_variable_fails():
    with pytest.raises(UnboundCurrentError):
        value({}, CurrentVar("x"))
    # read on the path not taken: the history is there, and empty
    spec = parse_spec(
        "if 1 == 1 then { skip } else { read x : ints }\nwrite { x_C }\n"
    )
    with pytest.raises(UnboundCurrentError):
        interpret(spec, [])


def test_branching_condition_example():
    env = {"n": [2], "x": [5, 3]}
    cond = Apply("==", (Apply("len", (AllVar("x"),)), CurrentVar("n")))
    assert chosen(env, cond) is True


def test_unknown_function():
    with pytest.raises(EvalError):
        value({}, Apply("nope", (IntConst(1),)))


def test_arbitrary_precision():
    env = {"x": [10**30] * 5}
    assert value(env, SUM_ALL_X) == 5 * 10**30


def test_mutating_function_leaves_history_alone():
    # histories are mutable lists, so a registry function must only ever
    # see a copy
    pop = FunctionSpec("pop", (Sort.INT_LIST,), Sort.INT, lambda xs: xs.pop())
    registry = DEFAULT_REGISTRY.extended(pop)
    terms = [Apply("pop", (AllVar("x"),)), Apply("len", (AllVar("x"),)), CurrentVar("x")]
    assert written({"x": [5, 3]}, *terms, *terms, registry=registry) == [3, 2, 3] * 2


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
    length = Apply("len", (AllVar("x"),))
    assert written(env, length, SUM_ALL_X, registry=registry) == [0, 8]
    assert calls == [[5, 3]]
    assert value(env, length) == 2


class TestOperators:
    def test_default_operators_are_inlined(self):
        # the default registry's own entries become Python operators
        compiler = _Compiler(DEFAULT_REGISTRY)
        one, two = IntConst(1), IntConst(2)
        for name, symbol in [("+", "+"), ("-", "-"), ("*", "*")]:
            assert compiler.term(Apply(name, (one, two))).split()[1] == symbol
            assert value({}, Apply(name, (one, two))) == DEFAULT_REGISTRY.lookup(name).fn(1, 2)
        for name, symbol in [("==", "=="), ("<", "<"), ("<=", "<="), (">", ">"), (">=", ">=")]:
            assert compiler.term(Apply(name, (one, two))).split()[1] == symbol
            assert chosen({}, Apply(name, (one, two))) is DEFAULT_REGISTRY.lookup(name).fn(1, 2)
        assert compiler.term(Apply("not", (Apply("<", (one, two)),))).startswith("(not ")
        assert chosen({}, Apply("not", (Apply("<", (one, two)),))) is False
        # `and` and `or` stay calls, and so does a call of the wrong arity
        assert "and" not in compiler.term(Apply("and", (Apply("<", (one, two)),) * 2))
        with pytest.raises(TypeError):
            value({}, Apply("+", (one,)))

    def test_overriding_an_operator_still_calls_it(self):
        calls = []

        def minus(a, b):
            calls.append((a, b))
            return a + b

        registry = DEFAULT_REGISTRY.extended(
            FunctionSpec("-", (Sort.INT, Sort.INT), Sort.INT, minus)
        )
        term = Apply("-", (CurrentVar("x"), IntConst(2)))
        assert value({"x": [5]}, term, registry) == 7
        assert calls == [(5, 2)]
        assert value({"x": [5]}, term) == 3

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
        theta = WriteOutput(
            (Apply("-", (CurrentVar("n"), Apply("len", (AllVar("x"),)))),),
            includes_epsilon=True,
        )
        assert last_set({"n": [3]}, [theta]).words == frozenset({(), (3,)})

    def test_sum_output(self):
        assert last_set({"x": [5, 3]}, [WriteOutput((SUM_ALL_X,))]).words == {(8,)}

    def test_duplicate_values_collapse(self):
        theta = WriteOutput(
            (IntConst(0), Apply("+", (IntConst(0), IntConst(0)))),
            includes_epsilon=True,
        )
        assert last_set({}, [theta]).words == frozenset({(), (0,)})

    def test_propagates_unbound_current(self):
        theta = WriteOutput((CurrentVar("x"),))
        with pytest.raises(UnboundCurrentError):
            last_set({}, [theta])


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=20))
def test_current_is_last_of_all(values):
    env = {"x": values}
    assert value(env, CurrentVar("x")) == value(env, history("x"), WITH_HISTORY)[-1]


@given(st.lists(st.integers(), max_size=10))
def test_evaluation_is_deterministic(values):
    env = {"x": values}
    assert value(env, SUM_ALL_X) == value(env, SUM_ALL_X) == sum(values)
