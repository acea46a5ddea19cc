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

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Optional

from .expressions import JET, MAX_DEGREE, Bundle, JetCoordinate, PolyExpr, _intern
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


# A token is a decimal run, a word run (an identifier when it starts with a
# letter) or one other character; whitespace between tokens is skipped.  \s,
# \d and \w are the Unicode classes of str.isspace, str.isdecimal and
# str.isalnum (or "_").
_TOKEN = re.compile(r"\d+|\w+|\S")


def tokenize(source: str) -> list[str]:
    """The token texts of source, then "" for the end of input."""
    tokens = _TOKEN.findall(source)
    for k, tok in enumerate(tokens):
        if not (tok[0].isalpha() or tok[0].isdecimal() or tok in _PUNCT):
            raise DslError(f"unexpected character {tok[0]!r}", *_position(source, k))
    tokens.append("")
    return tokens


def _kind(tok: str) -> str:
    """"int", "ident", "eof", or the punctuation character itself."""
    if not tok:
        return "eof"
    return "int" if tok[0].isdecimal() else "ident" if tok[0].isalpha() else tok


def _position(source: str, k: int) -> tuple[int, int]:
    """Line and column of token k, or of the end of input; only errors need them."""
    m = next(islice(_TOKEN.finditer(source), k, None), None)
    offset = len(source) if m is None else m.start()
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


@dataclass
class SessionFile:
    """A parsed session: the bundle signature and named operators, in order."""

    bundle: Bundle
    operators: dict[str, VectorOperator] = field(default_factory=dict)


class _Parser:
    """Recursive descent over the token texts; self.pos indexes the next token."""

    def __init__(self, source: str, bundle: Optional[Bundle] = None):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.bundle = bundle
        self.symbol_ids: dict[str, int] = {}  # name -> coordinate id, see parse_factor

    def error(self, message: str, k: int) -> DslError:
        return DslError(message, *_position(self.source, k))

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> str:
        """The next token, which must be of the given kind (see _kind)."""
        tok = self.tokens[self.pos]
        if _kind(tok) != kind:
            what = "end of input" if not tok else repr(tok)
            raise self.error(f"expected {kind!r}, found {what}", self.pos)
        self.pos += 1
        return tok

    def expect_int(self) -> int:
        tok = self.expect("int")
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise self.error(f"integer literal of {len(tok)} digits is too long", self.pos - 1) from None

    # -- declarations ---------------------------------------------------------

    def parse_session(self) -> SessionFile:
        decls = {"base": [], "fiber": [], "param": []}
        seen: set = set()
        while self.tokens[self.pos] in decls:
            kind = self.next()
            first = self.pos
            while _kind(self.tokens[self.pos]) == "ident":
                self._check_name(self.pos, seen)
                decls[kind].append(self.next())
            if self.pos == first:
                raise self.error(f"expected a name after {kind!r}", self.pos)
            self.expect(";")
        head = self.pos
        if not decls["base"]:
            raise self.error("no base variables declared", head)
        if not decls["fiber"]:
            raise self.error("no fiber variables declared", head)
        if len(decls["base"]) > MAX_BASE_DIM:
            raise self.error(f"at most {MAX_BASE_DIM} base variables supported", head)
        self.bundle = Bundle(tuple(decls["base"]), tuple(decls["fiber"]), tuple(decls["param"]))
        session = SessionFile(self.bundle)
        while self.tokens[self.pos]:
            tok = self.next()
            if tok in decls:
                raise self.error("declarations must precede operator definitions", self.pos - 1)
            if tok != "op":
                raise self.error(f"expected 'op', found {tok!r}", self.pos - 1)
            name = self.expect("ident")
            self._check_name(self.pos - 1, seen)
            self.expect("=")
            self.expect("[")
            comps = [self.parse_expr()]
            while self.tokens[self.pos] == ",":
                self.next()
                comps.append(self.parse_expr())
            self.expect("]")
            self.expect(";")
            session.operators[name] = VectorOperator(comps)
        return session

    def _check_name(self, k: int, seen: set) -> None:
        name = self.tokens[k]
        if name in KEYWORDS:
            raise self.error(f"{name!r} is a reserved word", k)
        if "_" in name:
            raise self.error(f"name {name!r} may not contain underscores", k)
        if name in seen:
            raise self.error(f"duplicate name {name!r}", k)
        seen.add(name)

    # -- expressions -------------------------------------------------------------
    #
    #   sum    := term (("+" | "-") term)*
    #   term   := factor ("*" factor)*
    #   factor := "-"* atom ("^" int)?
    #   atom   := int ("/" int)? | name | fiber "[" int ("," int)* "]" | "(" sum ")"
    #
    # Each method returns a fresh id-form term dict, monomial -> nonzero
    # coefficient (the representation inside PolyExpr, see expressions.py);
    # parse_expr wraps one per component, so no intermediate PolyExpr is made.

    def parse_expr(self) -> PolyExpr:
        return PolyExpr._make(self.bundle, self.parse_sum())

    def parse_sum(self) -> dict:
        acc = self.parse_term()
        while self.tokens[self.pos] in ("+", "-"):
            sign = 1 if self.next() == "+" else -1
            for mono, c in self.parse_term().items():
                c = acc.get(mono, 0) + sign * c
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
        return acc

    def parse_term(self) -> dict:
        left = self.parse_factor()
        while self.tokens[self.pos] == "*":
            star = self.pos
            self.pos += 1
            right = self.parse_factor()
            # Over the rationals the degree of a product is the sum of the
            # degrees, so the bound is checked before the product is built.
            degree = max(map(len, left), default=0) + max(map(len, right), default=0)
            if degree > MAX_DEGREE:
                raise self.error(f"product of degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", star)
            left = _product(left, right)
        return left

    def parse_factor(self) -> dict:
        tokens = self.tokens
        negate = False
        while tokens[self.pos] == "-":
            self.pos += 1
            negate = not negate
        k = self.pos
        tok = tokens[k]
        if tok[:1].isalpha():
            self.pos += 1
            # A name means the same coordinate throughout a session unless a
            # multi-index follows it, so the others are resolved once.
            if tokens[self.pos] == "[":
                vid = _intern(self._resolve_symbol(tok, k))
            else:
                vid = self.symbol_ids.get(tok)
                if vid is None:
                    vid = self.symbol_ids[tok] = _intern(self._resolve_symbol(tok, k))
            terms = {(vid,): 1}
        elif tok[:1].isdecimal():
            q = self.expect_int()
            if tokens[self.pos] == "/":
                self.pos += 1
                den = self.expect_int()
                if den == 0:
                    raise self.error("zero denominator", self.pos - 1)
                q = Fraction(q, den)
                q = q.numerator if q.denominator == 1 else q
            terms = {(): q} if q else {}
        elif tok == "(":
            self.pos += 1
            terms = self.parse_sum()
            self.expect(")")
        else:
            what = "end of input" if not tok else repr(tok)
            raise self.error(f"expected an expression, found {what}", k)
        if tokens[self.pos] == "^":
            self.pos += 1
            exp = self.expect_int()
            try:
                terms = (PolyExpr._make(self.bundle, terms) ** exp)._terms
            except ValueError as e:
                raise self.error(str(e), self.pos - 1) from None
        return {mono: -c for mono, c in terms.items()} if negate else terms

    def _resolve_symbol(self, name: str, k: int) -> JetCoordinate:
        bundle = self.bundle
        if "_" in name:
            head, _, suffix = name.partition("_")
            if head not in bundle.fiber:
                raise self.error(f"undeclared fiber variable {head!r}", k)
            j = bundle.fiber.index(head)
            counts = [0] * bundle.n
            for ch in suffix:
                if ch not in bundle.base:
                    raise self.error(f"{ch!r} in jet suffix is not a declared base variable", k)
                counts[bundle.base.index(ch)] += 1
            return self._jet(j, counts, k)
        if self.tokens[self.pos] == "[":
            if name not in bundle.fiber:
                raise self.error(f"undeclared fiber variable {name!r}", k)
            self.next()
            entries = [self.expect_int()]
            while self.tokens[self.pos] == ",":
                self.next()
                entries.append(self.expect_int())
            self.expect("]")
            if len(entries) != bundle.n:
                raise self.error(f"multi-index needs {bundle.n} entries, got {len(entries)}", self.pos - 1)
            return self._jet(bundle.fiber.index(name), entries, k)
        if name in bundle.fiber:
            return self._jet(bundle.fiber.index(name), [0] * bundle.n, k)
        if name in bundle.base:
            return bundle.base_coord(bundle.base.index(name))
        if name in bundle.params:
            return bundle.param_coord(name)
        raise self.error(f"undeclared symbol {name!r}", k)

    def _jet(self, j: int, entries: list, k: int) -> JetCoordinate:
        order = sum(entries)
        if order > MAX_ORDER:
            raise self.error(f"jet order {order} exceeds the limit {MAX_ORDER}", k)
        # j and the entries are checked, so the coordinate needs no validation.
        return JetCoordinate(JET, j, MultiIndex._unchecked(tuple(entries)))


def _product(a: dict, b: dict) -> dict:
    """a * b on term dicts (expressions._mul_into takes PolyExprs; wrapping costs 15% of a parse)."""
    if len(a) == 1 == len(b):  # the common case, one monomial times another
        ((m1, c1),), ((m2, c2),) = a.items(), b.items()
        return {tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2: c1 * c2}
    acc: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
            acc[mono] = acc.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in acc.items() if c}


def parse(source: str) -> SessionFile:
    """Parse a full session file."""
    return _Parser(source).parse_session()


def parse_expression(source: str, bundle: Bundle) -> PolyExpr:
    """Parse a single expression against an existing signature."""
    parser = _Parser(source, bundle)
    expr = parser.parse_expr()
    tok = parser.tokens[parser.pos]
    if tok:
        raise parser.error(f"unexpected trailing input {tok!r}", parser.pos)
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
