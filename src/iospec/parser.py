"""Textual syntax for specifications: parser and round-trip pretty-printer.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    spec      := statement*
    statement := "read" IDENT ":" domain
               | "write" "{" outputs "}"
               | "if" term "then" "{" spec "}" "else" "{" spec "}"
               | "loop" "{" spec "}"
               | "exit"
               | "skip"
    domain    := "ints" | "nats" | "{" INT ("," INT)* "}"
    outputs   := outputItem ("," outputItem)*
    outputItem:= "eps" | term
    term      := INT | IDENT "_C" | IDENT "_A" | IDENT "(" term ("," term)* ")"
               | term binop term | "not" term | "-" term | "(" term ")"
    binop     := "+" | "-" | "*" | "==" | "<" | "<=" | ">" | ">=" | "&&" | "||"

``*`` binds tighter than ``+``/``-``, which bind tighter than comparisons,
then ``not``, then ``&&``, then ``||``.  Arithmetic is left-associative;
comparison chaining is a parse error.  ``if c then {A} else {B}`` puts the
satisfied-condition branch first, while the tree keeps the false branch in
the first position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    AllVar,
    Apply,
    Branch,
    CurrentVar,
    DEFAULT_REGISTRY,
    ExplicitSet,
    Exit,
    FunctionRegistry,
    IntConst,
    Integers,
    Naturals,
    ReadInput,
    Spec,
    Term,
    TillExit,
    Violation,
    WriteOutput,
    well_formed,
)


@dataclass(frozen=True)
class SourceSpan:
    start_line: int
    start_column: int
    end_line: int
    end_column: int

    def __post_init__(self) -> None:
        if (self.start_line, self.start_column) > (self.end_line, self.end_column):
            raise ValueError("span start after span end")

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_column}"


class ParseError(Exception):
    """Syntax error with position and the token kinds that were expected."""

    def __init__(self, span: SourceSpan, message: str, expected: list[str] = None):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message
        self.expected = list(expected or [])


class StaticError(Exception):
    """Parsed fine, but the specification fails the static checks."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


KEYWORDS = {
    "read", "write", "if", "then", "else", "loop", "exit", "skip",
    "ints", "nats", "eps", "not",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>==|<=|>=|&&|\|\||[-+*<>{}(),:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | keyword text | operator text | "eof"
    text: str
    span: SourceSpan


def _scan(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(line, col, line, col)
            raise ParseError(span, f"unexpected character {text[pos]!r}")
        lexeme = m.group(0)
        end_line, end_col = line, col
        for ch in lexeme:
            if ch == "\n":
                end_line += 1
                end_col = 1
            else:
                end_col += 1
        if m.lastgroup != "ws":
            span = SourceSpan(line, col, end_line, max(end_col - 1, 1))
            if m.lastgroup == "int":
                tokens.append(Token("int", lexeme, span))
            elif m.lastgroup == "ident":
                kind = lexeme if lexeme in KEYWORDS else "ident"
                tokens.append(Token(kind, lexeme, span))
            else:
                tokens.append(Token(lexeme, lexeme, span))
        line, col = end_line, end_col
        pos = m.end()
    eof_span = SourceSpan(line, col, line, col)
    tokens.append(Token("eof", "", eof_span))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def here(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.here.kind in kinds

    def expect(self, kind: str, what: str = "") -> Token:
        if self.here.kind != kind:
            self.fail(what or f"expected {kind!r}", [kind])
        return self.advance()

    def fail(self, message: str, expected: list[str] = None):
        got = self.here.text or "end of input"
        raise ParseError(self.here.span, f"{message}, got {got!r}", expected)

    # -- specifications ------------------------------------------------

    _STMT_START = ("read", "write", "if", "loop", "exit", "skip")

    def spec(self) -> Spec:
        actions: list = []
        while self.at(*self._STMT_START):
            stmt = self.statement()
            if stmt is not None:
                actions.append(stmt)
        return Spec(tuple(actions))

    def statement(self):
        tok = self.here
        if tok.kind == "skip":
            self.advance()
            return None
        if tok.kind == "exit":
            self.advance()
            return Exit()
        if tok.kind == "read":
            self.advance()
            name = self.expect("ident", "expected a variable name").text
            self.expect(":", "expected ':' after the variable")
            return ReadInput(name, self.domain())
        if tok.kind == "write":
            self.advance()
            self.expect("{", "expected '{' after write")
            includes_epsilon = False
            terms: list[Term] = []
            while True:
                if self.at("eps"):
                    self.advance()
                    includes_epsilon = True
                else:
                    terms.append(self.term())
                if not self.at(","):
                    break
                self.advance()
            self.expect("}", "expected '}' closing the write")
            if not terms:
                self.fail("a write needs at least one non-eps term")
            return WriteOutput(tuple(terms), includes_epsilon)
        if tok.kind == "if":
            self.advance()
            condition = self.term()
            self.expect("then", "expected 'then'")
            true_branch = self.block()
            self.expect("else", "expected 'else'")
            false_branch = self.block()
            return Branch(condition, false_branch, true_branch)
        if tok.kind == "loop":
            self.advance()
            return TillExit(self.block())
        self.fail("expected a statement", list(self._STMT_START))

    def block(self) -> Spec:
        self.expect("{", "expected '{'")
        inner = self.spec()
        self.expect("}", "expected '}'")
        return inner

    def domain(self):
        if self.at("ints"):
            self.advance()
            return Integers()
        if self.at("nats"):
            self.advance()
            return Naturals()
        if self.at("{"):
            self.advance()
            values = [self.signed_int()]
            while self.at(","):
                self.advance()
                values.append(self.signed_int())
            self.expect("}", "expected '}' closing the value set")
            return ExplicitSet(frozenset(values))
        self.fail("expected an input domain", ["ints", "nats", "{"])

    def signed_int(self) -> int:
        negative = False
        if self.at("-"):
            self.advance()
            negative = True
        tok = self.expect("int", "expected an integer")
        value = int(tok.text)
        return -value if negative else value

    # -- terms (precedence climbing) -------------------------------------

    _COMPARISONS = ("==", "<", "<=", ">", ">=")

    def term(self) -> Term:
        return self.or_term()

    def or_term(self) -> Term:
        left = self.and_term()
        while self.at("||"):
            self.advance()
            left = Apply("or", (left, self.and_term()))
        return left

    def and_term(self) -> Term:
        left = self.not_term()
        while self.at("&&"):
            self.advance()
            left = Apply("and", (left, self.not_term()))
        return left

    def not_term(self) -> Term:
        if self.at("not"):
            self.advance()
            return Apply("not", (self.not_term(),))
        return self.comparison()

    def comparison(self) -> Term:
        left = self.additive()
        if self.here.kind in self._COMPARISONS:
            op = self.advance().kind
            right = self.additive()
            if self.here.kind in self._COMPARISONS:
                self.fail("comparisons cannot be chained")
            return Apply(op, (left, right))
        return left

    def additive(self) -> Term:
        left = self.multiplicative()
        while self.at("+", "-"):
            op = self.advance().kind
            left = Apply(op, (left, self.multiplicative()))
        return left

    def multiplicative(self) -> Term:
        left = self.unary()
        while self.at("*"):
            self.advance()
            left = Apply("*", (left, self.unary()))
        return left

    def unary(self) -> Term:
        if self.at("-"):
            self.advance()
            operand = self.unary()
            if isinstance(operand, IntConst):
                return IntConst(-operand.value)
            # sugar: -t is 0 - t
            return Apply("-", (IntConst(0), operand))
        return self.atom()

    def atom(self) -> Term:
        tok = self.here
        if tok.kind == "int":
            self.advance()
            return IntConst(int(tok.text))
        if tok.kind == "(":
            self.advance()
            inner = self.term()
            self.expect(")", "expected ')'")
            return inner
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.at("("):
                self.advance()
                args = [self.term()]
                while self.at(","):
                    self.advance()
                    args.append(self.term())
                self.expect(")", "expected ')' closing the argument list")
                return Apply(name, tuple(args))
            if name.endswith("_C") and len(name) > 2:
                return CurrentVar(name[:-2])
            if name.endswith("_A") and len(name) > 2:
                return AllVar(name[:-2])
            raise ParseError(
                tok.span,
                f"{name!r} is not a term: use {name}_C, {name}_A or a function call",
            )
        self.fail("expected a term", ["int", "ident", "(", "-", "not"])


def parse_spec(
    text: str, registry: FunctionRegistry = DEFAULT_REGISTRY
) -> Spec:
    """Parse a specification; statically checked on success.

    Raises ParseError on syntax errors and StaticError with the violation
    list when the parsed tree fails :func:`well_formed`.
    """
    parser = _Parser(_scan(text))
    spec = parser.spec()
    if not parser.at("eof"):
        parser.fail("expected a statement or end of input")
    violations = well_formed(spec, registry)
    if violations:
        raise StaticError(violations)
    return spec


# ---------------------------------------------------------------------------
# Pretty-printer


_LEVELS = {"or": 1, "and": 2, "not": 3, "==": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
           "+": 5, "-": 5, "*": 6}
_OP_TEXT = {"or": "||", "and": "&&"}


def render_term(term: Term) -> str:
    return _render_term(term, 0)


def _render_term(term: Term, level: int) -> str:
    if isinstance(term, IntConst):
        return str(term.value)
    if isinstance(term, CurrentVar):
        return f"{term.name}_C"
    if isinstance(term, AllVar):
        return f"{term.name}_A"
    if isinstance(term, Apply):
        own = _LEVELS.get(term.fn)
        if own is None or len(term.args) not in (1, 2):
            inner = ", ".join(_render_term(a, 0) for a in term.args)
            return f"{term.fn}({inner})"
        if term.fn == "not":
            text = f"not {_render_term(term.args[0], _LEVELS['not'])}"
        else:
            op = _OP_TEXT.get(term.fn, term.fn)
            # left-associative: the right operand needs one level more;
            # comparisons are non-associative, so both sides do.
            left_level = own + 1 if own == 4 else own
            left = _render_term(term.args[0], left_level)
            right = _render_term(term.args[1], own + 1)
            text = f"{left} {op} {right}"
        return f"({text})" if own < level else text
    raise TypeError(f"not a term: {term!r}")


def render_spec(spec: Spec) -> str:
    """Deterministic text for a spec; re-parses to the same tree."""
    lines = _render_actions(spec, 0)
    if not lines:
        return "skip\n"
    return "\n".join(lines) + "\n"


def _render_actions(spec: Spec, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for action in spec.actions:
        if isinstance(action, ReadInput):
            lines.append(f"{pad}read {action.var} : {action.domain}")
        elif isinstance(action, WriteOutput):
            items = (["eps"] if action.includes_epsilon else []) + [
                render_term(t) for t in action.terms
            ]
            lines.append(f"{pad}write {{ {', '.join(items)} }}")
        elif isinstance(action, Branch):
            lines.append(f"{pad}if {render_term(action.condition)} then {{")
            lines.extend(_render_actions(action.true_branch, indent + 1))
            lines.append(f"{pad}}} else {{")
            lines.extend(_render_actions(action.false_branch, indent + 1))
            lines.append(f"{pad}}}")
        elif isinstance(action, TillExit):
            lines.append(f"{pad}loop {{")
            lines.extend(_render_actions(action.body, indent + 1))
            lines.append(f"{pad}}}")
        elif isinstance(action, Exit):
            lines.append(f"{pad}exit")
        else:
            raise TypeError(f"not an action: {action!r}")
    return lines
