"""Textual syntax for specifications: parser and round-trip pretty-printer.

The scanner (`_scan`) and the token cursor (`_Cursor`) here also read the
trace text format, whose cursor has its own token pattern.  The whole text
is scanned before it is parsed, so a bad character anywhere is reported
before a grammar error.  A token keeps only its start offset, and only an
error works out its ``line:column``, from it; only a line feed breaks a line.

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

Nesting is limited to MAX_NESTING levels, and a deeper specification is a
parse error.  A construct's level is the number of ``if``/``loop`` blocks
and of operators and function calls of the syntax tree that enclose it, so
``write { (a_C + 1) * 2 }`` reaches level 2 at ``a_C``.  While the text is
read, each open parenthesis and prefix operator counts as a level too;
text printed by :func:`render_spec` never nests deeper than its tree.
"""

from __future__ import annotations

import re

from .syntax import (
    MAX_NESTING,
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
    _Record,
    too_deep,
    well_formed,
)


class SourceSpan(_Record):
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
    | (?P<int>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>==|<=|>=|&&|\|\||[-+*<>{}(),:])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# The same ASCII-digit rule for integers outside a spec: the lines a
# program under test prints and the numbers given on the command line.
_DECIMAL = re.compile(r"\s*[-+]?[0-9]+\s*")


def parse_decimal(text: str) -> int:
    """The decimal integer `text` spells: an optionally signed run of
    ASCII digits, surrounding whitespace allowed.  Raises ValueError on
    anything else, such as the `1_000` or non-ASCII digits `int` takes."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text.strip())


class Token(_Record):
    kind: str  # keyword or operator text, "eof", or the pattern group's name
    text: str
    start: int  # the offset of its first character in the scanned text


def _span(text: str, start: int, length: int) -> SourceSpan:
    """The span of the `length` characters (at least one) at offset `start`
    of `text`, counting lines and columns by the line feeds before it."""
    line = text.count("\n", 0, start) + 1
    column = start - text.rfind("\n", 0, start)
    return SourceSpan(line, column, line, column + max(length - 1, 0))


def _scan(text: str, pattern: re.Pattern = _TOKEN_RE) -> list[Token]:
    """The tokens of `text` by `pattern` with their offsets, ending in an
    "eof" token at ``len(text)``.  A match in the group `ws` is dropped, one
    in `bad` (the last group, any one character) is a ParseError, one in
    `op` is its own kind, one in `ident` is a keyword's kind or "ident", and
    one in any other group has that group's name as its kind."""
    tokens: list[Token] = []
    for m in pattern.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(_span(text, m.start(), 1), f"unexpected character {lexeme!r}")
        if kind == "op" or kind == "ident" and lexeme in KEYWORDS:
            kind = lexeme
        tokens.append(Token(kind, lexeme, m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Cursor:
    """A position in the tokens of `text` by the class's `pattern`; an error
    gets its `SourceSpan` from the offset of the token it names."""

    pattern = _TOKEN_RE

    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text, self.pattern)
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
        tok = self.here
        span = _span(self.text, tok.start, len(tok.text))
        raise ParseError(span, f"{message}, got {tok.text or 'end of input'!r}", expected)


# Each binary operator's token, the function it applies and its level, from
# the loosest binding up.  The parser climbs this table and the printer
# parenthesizes by it.  Prefix `not` binds at level _NOT, between `&&` and
# the comparisons; comparisons cannot be chained.
_NOT, _COMPARE = 3, 4
_BINARY = {
    "||": ("or", 1),
    "&&": ("and", 2),
    **{op: (op, _COMPARE) for op in ("==", "<", "<=", ">", ">=")},
    "+": ("+", 5),
    "-": ("-", 5),
    "*": ("*", 6),
}
_NO_OPERATOR = ("", 0)


class _Parser(_Cursor):
    depth = 0  # blocks, parentheses and prefix operators open at the current token

    def check_depth(self, tok: Token, height: int) -> int:
        """`height` more levels below the current depth, or a ParseError at
        `tok` when that passes MAX_NESTING."""
        if self.depth + height > MAX_NESTING:
            span = _span(self.text, tok.start, len(tok.text))
            raise ParseError(span, f"nested more than {MAX_NESTING} levels deep")
        return height

    def enter(self, tok: Token) -> None:
        self.depth += 1
        self.check_depth(tok, 0)

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
        # `spec` calls this only at a _STMT_START token: what is left is `loop`
        self.advance()
        return TillExit(self.block())

    def block(self) -> Spec:
        self.enter(self.expect("{", "expected '{'"))
        inner = self.spec()
        self.expect("}", "expected '}'")
        self.depth -= 1
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

    # -- terms ---------------------------------------------------------
    #
    # `operation` climbs `_BINARY`: it reads one operand, a `not` only where
    # `lowest` admits its level, then folds in each operator of at least
    # `lowest` level, reading that operator's right operand one level up so
    # equal levels associate to the left.  Below
    # `term`, each method returns the term and its height: the levels of
    # operators and calls in its tree.  Parsing a prefix operator or an
    # argument list already counted that level when it opened, so only
    # binary operators check the height.

    def term(self) -> Term:
        return self.operation()[0]

    def operation(self, lowest: int = 1) -> tuple[Term, int]:
        if lowest <= _NOT and self.at("not"):
            self.enter(self.advance())
            operand, height = self.operation(_NOT)
            self.depth -= 1
            left, height = Apply("not", (operand,)), height + 1
        else:
            left, height = self.unary()
        while True:
            fn, level = _BINARY.get(self.here.kind, _NO_OPERATOR)
            if level < lowest:
                return left, height
            tok = self.advance()
            right, right_height = self.operation(level + 1)
            if level == _COMPARE == _BINARY.get(self.here.kind, _NO_OPERATOR)[1]:
                self.fail("comparisons cannot be chained")
            left = Apply(fn, (left, right))
            height = self.check_depth(tok, 1 + max(height, right_height))

    def unary(self) -> tuple[Term, int]:
        if self.at("-"):
            self.enter(self.advance())
            operand, height = self.unary()
            self.depth -= 1
            if isinstance(operand, IntConst):
                return IntConst(-operand.value), height
            # sugar: -t is 0 - t
            return Apply("-", (IntConst(0), operand)), height + 1
        return self.atom()

    def atom(self) -> tuple[Term, int]:
        tok = self.here
        if tok.kind == "int":
            self.advance()
            return IntConst(int(tok.text)), 0
        if tok.kind == "(":
            self.enter(self.advance())
            inner, height = self.operation()
            self.expect(")", "expected ')'")
            self.depth -= 1
            return inner, height
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.at("("):
                self.enter(self.advance())
                args, heights = zip(*self.arguments())
                self.depth -= 1
                return Apply(name, args), max(heights) + 1
            if name.endswith("_C") and len(name) > 2:
                return CurrentVar(name[:-2]), 0
            if name.endswith("_A") and len(name) > 2:
                return AllVar(name[:-2]), 0
            span = _span(self.text, tok.start, len(name))
            message = f"{name!r} is not a term: use {name}_C, {name}_A or a function call"
            raise ParseError(span, message)
        self.fail("expected a term", ["int", "ident", "(", "-", "not"])

    def arguments(self) -> list[tuple[Term, int]]:
        args = [self.operation()]
        while self.at(","):
            self.advance()
            args.append(self.operation())
        self.expect(")", "expected ')' closing the argument list")
        return args


def parse_spec(
    text: str, registry: FunctionRegistry = DEFAULT_REGISTRY
) -> Spec:
    """Parse a specification; statically checked on success.

    Raises ParseError on syntax errors and StaticError with the violation
    list when the parsed tree fails :func:`well_formed`.
    """
    parser = _Parser(text)
    spec = parser.spec()
    if not parser.at("eof"):
        parser.fail("expected a statement or end of input")
    violations = well_formed(spec, registry)
    if violations:
        raise StaticError(violations)
    return spec


# ---------------------------------------------------------------------------
# Pretty-printer


# the operator text and level of each function `_BINARY` applies
_OPERATORS = {fn: (op, level) for op, (fn, level) in _BINARY.items()}


def render_term(term: Term) -> str:
    return _render_term(term, 0, 0)


def _render_term(term: Term, level: int, depth: int) -> str:
    """`term`, `depth` nesting levels deep, parenthesized if its operator
    binds less tightly than `level`."""
    if isinstance(term, IntConst):
        return str(term.value)
    if isinstance(term, CurrentVar):
        return f"{term.name}_C"
    if isinstance(term, AllVar):
        return f"{term.name}_A"
    if isinstance(term, Apply):
        depth += 1
        if depth > MAX_NESTING:
            raise too_deep()
        if term.fn == "not" and len(term.args) == 1:
            own = _NOT
            text = f"not {_render_term(term.args[0], _NOT, depth)}"
        elif term.fn in _OPERATORS and len(term.args) == 2:
            op, own = _OPERATORS[term.fn]
            # left-associative: the right operand needs one level more;
            # comparisons are non-associative, so both sides do.
            left_level = own + 1 if own == _COMPARE else own
            left = _render_term(term.args[0], left_level, depth)
            right = _render_term(term.args[1], own + 1, depth)
            text = f"{left} {op} {right}"
        else:
            inner = ", ".join(_render_term(a, 0, depth) for a in term.args)
            return f"{term.fn}({inner})"
        return f"({text})" if own < level else text
    raise TypeError(f"not a term: {term!r}")


def render_spec(spec: Spec) -> str:
    """Deterministic text for a spec; re-parses to the same tree."""
    lines = _render_actions(spec, 0)
    if not lines:
        return "skip\n"
    return "\n".join(lines) + "\n"


def _render_actions(spec: Spec, indent: int) -> list[str]:
    """The lines of `spec`, inside `indent` blocks."""
    if indent > MAX_NESTING:
        raise too_deep()
    pad = "  " * indent
    lines: list[str] = []
    for action in spec.actions:
        if isinstance(action, ReadInput):
            lines.append(f"{pad}read {action.var} : {action.domain}")
        elif isinstance(action, WriteOutput):
            items = (["eps"] if action.includes_epsilon else []) + [
                _render_term(t, 0, indent) for t in action.terms
            ]
            lines.append(f"{pad}write {{ {', '.join(items)} }}")
        elif isinstance(action, Branch):
            lines.append(f"{pad}if {_render_term(action.condition, 0, indent)} then {{")
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
