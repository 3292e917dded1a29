import ast
import copy
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

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
    In,
    IntConst,
    Integers,
    Naturals,
    Out,
    ParseError,
    ReadInput,
    Sort,
    Trace,
    Spec,
    StaticError,
    TillExit,
    ViolationKind,
    WriteOutput,
    accept,
    interpret,
    parse_generalized_trace,
    parse_spec,
    parse_trace,
    render_spec,
    render_term,
    render_trace,
)

from iospec.parser import MAX_NESTING, SourceSpan, Token, _Parser, _scan

from conftest import SUM_SPEC_TEXT
from randgen import random_generalized_trace, random_spec


def term_of(text: str):
    # grammar-level parsing without the static checks
    parser = _Parser(text)
    term = parser.term()
    assert parser.at("eof")
    return term


class TestGrammar:
    def test_running_example(self):
        spec = parse_spec(SUM_SPEC_TEXT)
        body = Spec((
            Branch(
                Apply("==", (Apply("len", (AllVar("x"),)), CurrentVar("n"))),
                Spec((
                    WriteOutput(
                        (Apply("-", (CurrentVar("n"), Apply("len", (AllVar("x"),)))),),
                        includes_epsilon=True,
                    ),
                    ReadInput("x", Integers()),
                )),
                Spec((Exit(),)),
            ),
        ))
        expected = Spec((
            ReadInput("n", Naturals()),
            TillExit(body),
            WriteOutput((Apply("sum", (AllVar("x"),)),)),
        ))
        assert spec == expected

    def test_skip_is_empty(self):
        assert parse_spec("skip") == EMPTY
        assert parse_spec("") == EMPTY
        assert parse_spec("# nothing but a comment\n") == EMPTY

    def test_skip_vanishes_in_sequence(self):
        assert parse_spec("skip read x : ints skip") == Spec((READ_X,))

    def test_empty_write_is_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("write { }")

    def test_epsilon_only_write_is_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("write { eps }")

    def test_explicit_domain(self):
        spec = parse_spec("read x : {3, 1, -2}")
        assert spec == Spec((ReadInput("x", ExplicitSet(frozenset({3, 1, -2}))),))

    def test_branch_orientation(self):
        # the 'then' block is the satisfied-condition branch, stored second
        spec = parse_spec(
            "read x : ints if x_C == 0 then { write { 2 } } else { write { 1 } } "
        )
        branch = spec.actions[1]
        assert branch.true_branch == Spec((WriteOutput((IntConst(2),)),))
        assert branch.false_branch == Spec((WriteOutput((IntConst(1),)),))

    def test_comments_and_whitespace_insensitivity(self):
        a = parse_spec("read x : ints write { x_C }")
        b = parse_spec("# header\nread   x:ints # trailing\n\n\nwrite{x_C}")
        assert a == b

    def test_static_error_carries_violations(self):
        with pytest.raises(StaticError) as exc:
            parse_spec("write { x_C }")
        assert [v.kind for v in exc.value.violations] == [
            ViolationKind.USE_BEFORE_READ
        ]

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("read x :\nwobble")
        assert exc.value.span.start_line == 2

    def test_function_of_two_arguments(self):
        maximum = FunctionSpec("max", (Sort.INT, Sort.INT), Sort.INT, max)
        registry = DEFAULT_REGISTRY.extended(maximum)
        spec = parse_spec("read x : ints\nwrite { max(x_C, 3) }\n", registry)
        assert parse_spec(render_spec(spec), registry) == spec
        assert render_trace(interpret(spec, [1], registry)) == "?1 !{3} stop"
        with pytest.raises(ParseError) as exc:
            parse_spec("read x : ints\nwrite { max(x_C,) }\n", registry)
        assert str(exc.value).startswith("2:17: expected a term")

    def test_text_after_the_last_statement(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("write { 1 } }")
        assert str(exc.value).startswith("1:13: expected a statement or end of input")

    def test_literals_are_ascii_digits(self):
        # `\d` would also match the Arabic-Indic digit 7
        with pytest.raises(ParseError):
            parse_spec("write { \u0667 }")

    def test_determinism(self):
        text = SUM_SPEC_TEXT
        assert parse_spec(text) == parse_spec(text)


READ_X = ReadInput("x", Integers())


class TestTerms:
    def test_precedence_mul_over_add(self):
        assert term_of("1 + 2 * 3") == Apply(
            "+", (IntConst(1), Apply("*", (IntConst(2), IntConst(3))))
        )

    def test_add_left_associative(self):
        assert term_of("1 - 2 - 3") == Apply(
            "-", (Apply("-", (IntConst(1), IntConst(2))), IntConst(3))
        )

    def test_comparison_below_arithmetic(self):
        assert term_of("1 + 2 < 3 * 4") == Apply(
            "<",
            (Apply("+", (IntConst(1), IntConst(2))),
             Apply("*", (IntConst(3), IntConst(4)))),
        )

    def test_boolean_precedence(self):
        t = term_of("1 < 2 && 3 < 4 || 5 < 6")
        assert t.fn == "or"
        assert t.args[0].fn == "and"

    def test_not_binds_looser_than_comparison(self):
        assert term_of("not 1 < 2 && 2 < 3") == Apply(
            "and",
            (Apply("not", (Apply("<", (IntConst(1), IntConst(2))),)),
             Apply("<", (IntConst(2), IntConst(3)))),
        )

    def test_comparison_chaining_rejected(self):
        with pytest.raises(ParseError):
            term_of("1 < 2 < 3")

    def test_negative_literal(self):
        assert term_of("-5") == IntConst(-5)
        assert term_of("3 - -5") == Apply("-", (IntConst(3), IntConst(-5)))

    def test_unary_minus_desugars(self):
        assert term_of("-len(x_A)") == Apply(
            "-", (IntConst(0), Apply("len", (AllVar("x"),)))
        )

    def test_parentheses(self):
        assert term_of("(1 + 2) * 3") == Apply(
            "*", (Apply("+", (IntConst(1), IntConst(2))), IntConst(3))
        )

    def test_bare_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("write { x }")

    def test_variable_accessors(self):
        assert term_of("foo_C") == CurrentVar("foo")
        assert term_of("foo_A + 0") == Apply("+", (AllVar("foo"), IntConst(0)))


BINARY_OPERATORS = ("||", "&&", "==", "<", "<=", ">", ">=", "+", "-", "*")


def binary(op: str, left, right) -> Apply:
    return Apply({"||": "or", "&&": "and"}.get(op, op), (left, right))


def operator_trees():
    """Each ordered pair of binary operators nested either way, and each
    operator under `not`, beside `not`, beside `0 - a` and between two
    negative constants."""
    a, b, c = CurrentVar("a"), CurrentVar("b"), CurrentVar("c")
    for op1 in BINARY_OPERATORS:
        for op2 in BINARY_OPERATORS:
            yield binary(op2, binary(op1, a, b), c)
            yield binary(op1, a, binary(op2, b, c))
    for op in BINARY_OPERATORS:
        yield Apply("not", (binary(op, a, b),))
        yield binary(op, Apply("not", (a,)), b)
        yield binary(op, a, Apply("not", (b,)))
        yield binary(op, Apply("-", (IntConst(0), a)), b)
        yield binary(op, IntConst(-1), IntConst(-2))


def without_each_pair(text: str):
    """`text` with each matching pair of parentheses taken out in turn."""
    opened = []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            j = opened.pop()
            yield text[:j] + text[j + 1:i] + text[i + 1:]


class TestRendering:
    def test_empty_spec(self):
        assert render_spec(EMPTY) == "skip\n"

    def test_read(self):
        assert render_spec(Spec((ReadInput("n", Naturals()),))) == "read n : nats\n"

    def test_running_example_round_trip(self):
        spec = parse_spec(SUM_SPEC_TEXT)
        assert parse_spec(render_spec(spec)) == spec

    def test_minimal_parentheses(self):
        t = Apply("*", (Apply("+", (IntConst(1), IntConst(2))), IntConst(3)))
        assert render_term(t) == "(1 + 2) * 3"
        t = Apply("+", (IntConst(1), Apply("*", (IntConst(2), IntConst(3)))))
        assert render_term(t) == "1 + 2 * 3"
        for t in operator_trees():
            text = render_term(t)
            assert term_of(text) == t, text
            # each pair of parentheses printed is needed
            for bare in without_each_pair(text):
                try:
                    assert term_of(bare) != t, (text, bare)
                except ParseError:
                    pass

    def test_wrong_arity_prints_as_a_call(self):
        # not well formed, so the text need not re-parse, but no argument
        # may be lost
        assert render_term(Apply("+", (IntConst(1),))) == "+(1)"
        assert render_term(Apply("-", (CurrentVar("x"),))) == "-(x_C)"
        assert render_term(Apply("not", (IntConst(1), IntConst(2)))) == "not(1, 2)"

    def test_right_nested_subtraction_keeps_parens(self):
        t = Apply("-", (IntConst(1), Apply("-", (IntConst(2), IntConst(3)))))
        assert render_term(t) == "1 - (2 - 3)"

    def test_round_trip_on_random_specs(self):
        rng = random.Random(31337)
        for _ in range(300):
            spec = random_spec(rng)
            assert parse_spec(render_spec(spec)) == spec


# Specifications whose deepest construct sits `levels` levels deep.


def nested_parentheses(levels: int) -> str:
    # parentheses count while reading; `x_C + 1` adds the last level
    inner = "(" * (levels - 1) + "x_C + 1" + ")" * (levels - 1)
    return f"read x : ints\nwrite {{ {inner} }}\n"


def operator_chain(levels: int) -> str:
    return "read x : ints\nwrite { " + " + ".join(["x_C"] * (levels + 1)) + " }\n"


def prefix_operators(levels: int) -> str:
    return "read x : ints\nwrite { " + "- " * levels + "x_C }\n"


def nested_ifs(levels: int) -> str:
    return (
        "read x : ints\n"
        + "if x_C == 1 then { " * levels
        + "write { x_C }"
        + " } else { skip }" * levels
        + "\n"
    )


def nested_loops(levels: int) -> str:
    body = "write { x_C } exit"
    for _ in range(levels):
        body = f"loop {{ {body} }} exit"
    return "read x : ints\n" + body[: -len(" exit")] + "\n"


def terms_in_blocks(levels: int) -> str:
    blocks = levels // 2
    chain = " + ".join(["x_C"] * (levels - blocks + 1))
    return (
        "read x : ints\n"
        + "if x_C == 1 then { " * blocks
        + f"write {{ {chain} }}"
        + " } else { skip }" * blocks
        + "\n"
    )


NESTINGS = [
    nested_parentheses,
    operator_chain,
    prefix_operators,
    nested_ifs,
    nested_loops,
    terms_in_blocks,
]


class TestNestingLimit:
    @pytest.mark.parametrize("make", NESTINGS, ids=lambda f: f.__name__)
    def test_at_the_limit(self, make):
        # every layer that recurses over the tree copes at the limit
        spec = parse_spec(make(MAX_NESTING))
        assert parse_spec(render_spec(spec)) == spec
        interpret(spec, [1])
        assert accept(spec, Trace((In(1),))) is False

    @pytest.mark.parametrize("make", NESTINGS, ids=lambda f: f.__name__)
    def test_one_past_the_limit(self, make):
        text = make(MAX_NESTING + 1)
        with pytest.raises(ParseError) as exc:
            parse_spec(text)
        assert f"nested more than {MAX_NESTING} levels deep" in str(exc.value)
        # the span points at the block brace or operator one level too deep
        span = exc.value.span
        line = text.splitlines()[span.start_line - 1]
        assert line[span.start_column - 1] in "{+-="

    def test_far_past_the_limit_is_still_a_parse_error(self):
        for make in NESTINGS:
            with pytest.raises(ParseError):
                parse_spec(make(2000))


class TestTokens:
    def test_repr_shows_every_field_by_name(self):
        assert [repr(t) for t in _scan("read x")] == [
            "Token(kind='read', text='read', start=0)",
            "Token(kind='ident', text='x', start=5)",
            "Token(kind='eof', text='', start=6)",
        ]

    def test_values_compare_hash_pickle_and_copy(self):
        a, b = _scan("write { x_C }\n"), _scan("write { x_C }\n")
        assert a == b
        assert [hash(t) for t in a] == [hash(t) for t in b]
        assert _scan("x")[0] != _scan(" x")[0]  # the same text at another place
        for token in a:
            for twin in (pickle.loads(pickle.dumps(token)), copy.copy(token),
                         copy.deepcopy(token)):
                assert twin == token and hash(twin) == hash(token)
                assert repr(twin) == repr(token)

    def test_construction(self):
        span = SourceSpan(start_line=1, start_column=2, end_line=1, end_column=3)
        assert span == SourceSpan(1, 2, 1, 3) and str(span) == "1:2"
        assert Token(kind="int", text="7", start=1) == Token("int", "7", 1)
        assert Token.__match_args__ == ("kind", "text", "start")
        with pytest.raises(TypeError):
            Token("int", "7")
        with pytest.raises(TypeError):
            SourceSpan(1, 2, 1, 3, end=4)

    def test_fields_cannot_change(self):
        token = _scan("x")[0]
        with pytest.raises(AttributeError):
            token.kind = "int"
        with pytest.raises(AttributeError):
            del token.span.start_line
        assert token == _scan("x")[0]

    def test_span_must_not_end_before_it_starts(self):
        with pytest.raises(ValueError):
            SourceSpan(2, 1, 1, 1)
        with pytest.raises(ValueError):
            SourceSpan(1, 5, 1, 4)


# The tokens of a rendered spec or trace, to be spaced apart again.
SPEC_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+|[=<>]=|&&|\|\||\S")
TRACE_TOKEN = re.compile(r"[?!]-?[0-9]+|!\{|-?[0-9]+|[a-z]+|\S")
SEPARATORS = [" ", "\t", "\n", "\r\n", "\u00a0", "\u2028"]
EXTRA_TOKENS = ["stop", "}", "{", ",", "7", "read", "!{", "?3", "!4", "eps", "<", ")", "x_C"]
BAD_CHARACTERS = "@$;~\u00e9\u0663"
PARSERS = [parse_trace, parse_generalized_trace, parse_spec]


def faulty_text(rng: random.Random) -> str:
    """A valid spec or trace with its tokens spaced apart at random, then
    one fault: a bad character, a dropped `stop` or `}`, or an extra token."""
    kind = rng.randrange(3)
    if kind == 0:
        text, pattern = render_spec(random_spec(rng, depth=rng.randint(1, 3))), SPEC_TOKEN
    elif kind == 1:
        steps = [rng.choice((In, Out))(rng.randint(-9, 9)) for _ in range(rng.randint(0, 6))]
        text, pattern = render_trace(Trace(tuple(steps))), TRACE_TOKEN
    else:
        text, pattern = render_trace(random_generalized_trace(rng)), TRACE_TOKEN
    separators = SEPARATORS + (["  # a note\n"] if kind == 0 else [])
    tokens = pattern.findall(text)
    gaps = ["".join(rng.choices(separators, k=rng.randint(0, 2))) for _ in tokens]
    gaps = [gap or " " for gap in gaps[:-1]] + gaps[-1:]
    text = "".join(gap + tok for gap, tok in zip(gaps, tokens))
    fault = rng.randrange(3)
    if fault == 0:
        at = rng.randint(0, len(text))
        return text[:at] + rng.choice(BAD_CHARACTERS) + text[at:]
    if fault == 1:
        dropped = rng.choice(["stop", "}"])
        places = [m.start() for m in re.finditer(re.escape(dropped), text)]
        if places:
            at = rng.choice(places)
            text = text[:at] + text[at + len(dropped):]
        return text
    at = rng.choice([0] + [m.end() for m in re.finditer(r"\s+", text)] + [len(text)])
    return text[:at] + f" {rng.choice(EXTRA_TOKENS)} " + text[at:]


def named_token(message: str) -> str | None:
    """The token or character an error message names, or None."""
    if message.startswith("unexpected character "):
        return ast.literal_eval(message.removeprefix("unexpected character "))
    if ", got " in message:
        return ast.literal_eval(message.rsplit(", got ", 1)[1])
    if " is not a term" in message:
        return ast.literal_eval(message.split(" is not a term")[0])
    return None


class TestErrorPositions:
    @given(st.randoms(use_true_random=False))
    def test_position_points_at_what_the_message_names(self, rng):
        text = faulty_text(rng)
        lines = text.split("\n")
        for parse in PARSERS:
            try:
                parse(text)
            except ParseError as err:
                span, name = err.span, named_token(err.message)
                assert span.end_line == span.start_line
                rest = lines[span.start_line - 1][span.start_column - 1:]
                if name == "end of input":
                    # one past the last character
                    assert (span.start_line, rest) == (len(lines), "")
                elif name is not None:
                    assert rest.startswith(name), (parse.__name__, text, str(err))
                    assert span.end_column == span.start_column + len(name) - 1
                else:
                    assert rest and not rest[0].isspace()
            except StaticError:
                pass

    def test_a_bad_character_is_reported_before_a_grammar_error(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("?1 5 stop @")
        assert str(exc.value) == "1:11: unexpected character '@'"
        with pytest.raises(ParseError) as exc:
            parse_spec("read x : ints\nwrite { }\n  @")
        assert str(exc.value) == "3:3: unexpected character '@'"
