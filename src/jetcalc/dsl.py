"""Session-file DSL: variable declarations plus named operator definitions.

A session file declares the bundle signature and then defines operators:

    base x;
    fiber u;
    param c;
    op F = [u_x^2];
    op G = [u_x + c*x];

Jet coordinates are written as the fiber name with a suffix of base-variable
letters (u_xxy) or with an explicit multi-index (u[2,1]); a bare fiber name
is the order-zero coordinate.  Expressions use + - * ^ with integer or
num/den literals.  Parse errors carry exact line and column positions, and
printing a parsed session yields text that parses back to an equal session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .expressions import MAX_DEGREE, Bundle, PolyExpr
from .multiindex import MAX_BASE_DIM, MAX_ORDER, MultiIndex
from .vectorops import VectorOperator

KEYWORDS = ("base", "fiber", "param", "op")
_PUNCT = "+-*^()[],;=/"


class DslError(ValueError):
    """Lexical, syntactic or resolution error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    type: str  # "ident", "int", "eof", or the punctuation character itself
    value: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < len(source) and source[i].isdecimal():
                i += 1
            tokens.append(Token("int", source[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(source) and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("ident", source[start:i], line, col))
            col += i - start
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class SessionFile:
    """A parsed session: the bundle signature and named operators, in order."""

    bundle: Bundle
    operators: dict[str, VectorOperator] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionFile):
            return NotImplemented
        return self.bundle == other.bundle and self.operators == other.operators


class _Parser:
    def __init__(self, tokens: list[Token], bundle: Optional[Bundle] = None):
        self.tokens = tokens
        self.pos = 0
        self.bundle = bundle

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_int(self) -> int:
        tok = self.expect("int")
        try:
            return int(tok.value)
        except ValueError:  # more digits than int() converts
            raise DslError(
                f"integer literal of {len(tok.value)} digits is too long", tok.line, tok.col
            ) from None

    def expect(self, type_: str) -> Token:
        tok = self.peek()
        if tok.type != type_:
            what = "end of input" if tok.type == "eof" else repr(tok.value)
            raise DslError(f"expected {type_!r}, found {what}", tok.line, tok.col)
        return self.next()

    # -- declarations ---------------------------------------------------------

    def parse_session(self) -> SessionFile:
        decls = {"base": [], "fiber": [], "param": []}
        seen: dict[str, Token] = {}
        while self.peek().type == "ident" and self.peek().value in ("base", "fiber", "param"):
            kind = self.next().value
            count = 0
            while self.peek().type == "ident":
                tok = self.next()
                self._check_name(tok, seen)
                decls[kind].append(tok.value)
                count += 1
            if count == 0:
                tok = self.peek()
                raise DslError(f"expected a name after {kind!r}", tok.line, tok.col)
            self.expect(";")
        head = self.peek()
        if not decls["base"]:
            raise DslError("no base variables declared", head.line, head.col)
        if not decls["fiber"]:
            raise DslError("no fiber variables declared", head.line, head.col)
        if len(decls["base"]) > MAX_BASE_DIM:
            raise DslError(f"at most {MAX_BASE_DIM} base variables supported", head.line, head.col)
        self.bundle = Bundle(tuple(decls["base"]), tuple(decls["fiber"]), tuple(decls["param"]))
        session = SessionFile(self.bundle)
        while self.peek().type != "eof":
            tok = self.peek()
            if tok.type == "ident" and tok.value in ("base", "fiber", "param"):
                raise DslError("declarations must precede operator definitions", tok.line, tok.col)
            if not (tok.type == "ident" and tok.value == "op"):
                what = repr(tok.value)
                raise DslError(f"expected 'op', found {what}", tok.line, tok.col)
            self.next()
            name_tok = self.expect("ident")
            self._check_name(name_tok, seen)
            self.expect("=")
            self.expect("[")
            comps = [self.parse_sum()]
            while self.peek().type == ",":
                self.next()
                comps.append(self.parse_sum())
            self.expect("]")
            self.expect(";")
            session.operators[name_tok.value] = VectorOperator(comps)
        return session

    def _check_name(self, tok: Token, seen: dict) -> None:
        name = tok.value
        if name in KEYWORDS:
            raise DslError(f"{name!r} is a reserved word", tok.line, tok.col)
        if "_" in name:
            raise DslError(f"name {name!r} may not contain underscores", tok.line, tok.col)
        if name in seen:
            raise DslError(f"duplicate name {name!r}", tok.line, tok.col)
        seen[name] = tok

    # -- expressions -------------------------------------------------------------

    def parse_sum(self) -> PolyExpr:
        left = self.parse_term()
        while self.peek().type in ("+", "-"):
            op = self.next().type
            right = self.parse_term()
            left = left + right if op == "+" else left - right
        return left

    def parse_term(self) -> PolyExpr:
        left = self.parse_factor()
        while self.peek().type == "*":
            star = self.next()
            right = self.parse_factor()
            # Over the rationals the degree of a product is the sum of the
            # degrees, so the bound is checked before the product is built.
            degree = left.degree + right.degree
            if degree > MAX_DEGREE:
                raise DslError(
                    f"product of degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", star.line, star.col
                )
            left = left * right
        return left

    def parse_factor(self) -> PolyExpr:
        if self.peek().type == "-":
            self.next()
            return -self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> PolyExpr:
        base = self.parse_atom()
        if self.peek().type == "^":
            self.next()
            exp_tok = self.peek()
            exp = self.expect_int()
            try:
                return base**exp
            except ValueError as e:
                raise DslError(str(e), exp_tok.line, exp_tok.col) from None
        return base

    def parse_atom(self) -> PolyExpr:
        tok = self.peek()
        if tok.type == "int":
            num = self.expect_int()
            if self.peek().type == "/":
                self.next()
                den_tok = self.peek()
                den = self.expect_int()
                if den == 0:
                    raise DslError("zero denominator", den_tok.line, den_tok.col)
                return self.bundle.const(Fraction(num, den))
            return self.bundle.const(num)
        if tok.type == "(":
            self.next()
            inner = self.parse_sum()
            self.expect(")")
            return inner
        if tok.type == "ident":
            self.next()
            return self._resolve_symbol(tok)
        what = "end of input" if tok.type == "eof" else repr(tok.value)
        raise DslError(f"expected an expression, found {what}", tok.line, tok.col)

    def _resolve_symbol(self, tok: Token) -> PolyExpr:
        bundle = self.bundle
        name = tok.value
        if "_" in name:
            head, _, suffix = name.partition("_")
            if head not in bundle.fiber:
                raise DslError(f"undeclared fiber variable {head!r}", tok.line, tok.col)
            j = bundle.fiber.index(head)
            counts = [0] * bundle.n
            for ch in suffix:
                if ch not in bundle.base:
                    raise DslError(
                        f"{ch!r} in jet suffix is not a declared base variable", tok.line, tok.col
                    )
                counts[bundle.base.index(ch)] += 1
            return self._jet(j, counts, tok)
        if self.peek().type == "[":
            if name not in bundle.fiber:
                raise DslError(f"undeclared fiber variable {name!r}", tok.line, tok.col)
            self.next()
            entries = [self.expect_int()]
            while self.peek().type == ",":
                self.next()
                entries.append(self.expect_int())
            close = self.expect("]")
            if len(entries) != bundle.n:
                raise DslError(
                    f"multi-index needs {bundle.n} entries, got {len(entries)}",
                    close.line,
                    close.col,
                )
            return self._jet(bundle.fiber.index(name), entries, tok)
        if name in bundle.fiber:
            return bundle.fiber_var(bundle.fiber.index(name))
        if name in bundle.base:
            return bundle.base_var(bundle.base.index(name))
        if name in bundle.params:
            return bundle.param(name)
        raise DslError(f"undeclared symbol {name!r}", tok.line, tok.col)

    def _jet(self, j: int, entries: list, tok: Token) -> PolyExpr:
        order = sum(entries)
        if order > MAX_ORDER:
            raise DslError(f"jet order {order} exceeds the limit {MAX_ORDER}", tok.line, tok.col)
        return self.bundle.jet(j, MultiIndex(tuple(entries)))


def parse(source: str) -> SessionFile:
    """Parse a full session file."""
    return _Parser(tokenize(source)).parse_session()


def parse_expression(source: str, bundle: Bundle) -> PolyExpr:
    """Parse a single expression against an existing signature."""
    parser = _Parser(tokenize(source), bundle)
    expr = parser.parse_sum()
    tok = parser.peek()
    if tok.type != "eof":
        raise DslError(f"unexpected trailing input {tok.value!r}", tok.line, tok.col)
    return expr


def print_session(session: SessionFile) -> str:
    """Render a session back to source; the result parses to an equal session."""
    from .printing import poly_text

    lines = ["base " + " ".join(session.bundle.base) + ";"]
    lines.append("fiber " + " ".join(session.bundle.fiber) + ";")
    if session.bundle.params:
        lines.append("param " + " ".join(session.bundle.params) + ";")
    for name, op in session.operators.items():
        body = ", ".join(poly_text(c) for c in op.components)
        lines.append(f"op {name} = [{body}];")
    return "\n".join(lines) + "\n"
