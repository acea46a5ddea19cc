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

A product is read as one coefficient times one monomial: its numbers (and
their powers and signs) multiply the coefficient and its coordinates (and
their powers) make the monomial, so a product such as -24*u_yy*u_xx builds no
term dict.  Only a parenthesised sum is a term dict, and the polynomial
product kernel _mul_into runs only for a product that holds one.

The parser bounds the work an input can ask for, each bound raising a
DslError at the token that breaks it: parentheses nest at most MAX_NESTING
deep, a jet coordinate has order at most MAX_ORDER, a product or power has
degree at most MAX_DEGREE, and a power base^exp has exp * B at most
MAX_POWER_BITS, B being the bit length of the base's largest numerator or
denominator.  The last one is tested only once the degree bound has passed,
so it bounds the coefficients of a power, above all of a constant, whose
degree is 0 at any nesting.  The number of terms of a power of a sum is not
bounded yet.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import Optional

from .expressions import JET, MAX_DEGREE, Bundle, JetCoordinate, PolyExpr, _check_power, _check_type, _intern, _mul_into
from .expressions import _Record
from .multiindex import MAX_BASE_DIM, MAX_ORDER, MultiIndex
from .vectorops import VectorOperator

KEYWORDS = ("base", "fiber", "param", "op")
# Deepest nesting of parentheses; the descent recurses once per level, so an
# unbounded depth would end in RecursionError.
MAX_NESTING = 100
# Largest exp * B for a power base^exp, B being the bit length of the base's
# largest numerator or denominator: the degree bound reads 0 for a constant at
# any nesting, so this bounds the coefficients a power builds.  Below Python's
# 4,300-digit int-to-str limit, so a powered constant still prints.
MAX_POWER_BITS = 14_000
_PUNCT = "+-*^()[],;=/"
_STARTS = {"int": str.isdecimal, "ident": str.isalpha}  # the first character of an "int" or "ident" token


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


def _position(source: str, k: int) -> tuple[int, int]:
    """Line and column of token k, or of the end of input; only errors need them."""
    m = next(islice(_TOKEN.finditer(source), k, None), None)
    offset = len(source) if m is None else m.start()
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


class SessionFile(_Record):
    """A parsed session: the bundle signature and named operators, in order."""

    def __init__(self, bundle: Bundle, operators: Optional[dict[str, VectorOperator]] = None):
        self.bundle = bundle
        self.operators = {} if operators is None else operators


class _Parser:
    """Recursive descent over the token texts; self.pos indexes the next token."""

    def __init__(self, source: str, bundle: Optional[Bundle] = None):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.bundle = bundle
        self.symbol_ids: dict[str, int] = {}  # name -> coordinate id, see parse_factor
        self.depth = 0  # open parentheses around the current factor

    def error(self, message: str, k: int) -> DslError:
        return DslError(message, *_position(self.source, k))

    def expect(self, kind: str) -> str:
        """The next token, which must be the punctuation character kind, or
        for kind "int" or "ident" a decimal run or a name (see tokenize)."""
        tok = self.tokens[self.pos]
        if (tok != kind) if len(kind) == 1 else not _STARTS[kind](tok[:1]):
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
        tokens = self.tokens
        while tokens[self.pos] in decls:
            kind = tokens[self.pos]
            self.pos += 1
            first = self.pos
            while tokens[self.pos][:1].isalpha():
                self._check_name(self.pos, seen)
                decls[kind].append(tokens[self.pos])
                self.pos += 1
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
        while tokens[self.pos]:
            tok = tokens[self.pos]
            self.pos += 1
            if tok in decls:
                raise self.error("declarations must precede operator definitions", self.pos - 1)
            if tok != "op":
                raise self.error(f"expected 'op', found {tok!r}", self.pos - 1)
            name = self.expect("ident")
            self._check_name(self.pos - 1, seen)
            self.expect("=")
            self.expect("[")
            comps = [self.parse_expr()]
            while tokens[self.pos] == ",":
                self.pos += 1
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
    #   sum     := product (("+" | "-") product)*
    #   product := factor ("*" factor)*
    #   factor  := "-"* atom ("^" int)?
    #   atom    := int ("/" int)? | name | fiber "[" int ("," int)* "]" | "(" sum ")"
    #
    # parse_sum reads a sum and its products in one loop.  A product is read
    # as one coefficient times one monomial, a list of coordinate ids: a
    # number, its power and each "-" multiply the coefficient, a coordinate
    # and its power append ids.  Only a "(" sum ")" factor, powered or not,
    # is a term dict, in id form, monomial -> coefficient (the representation
    # inside PolyExpr, see expressions.py); a product's parenthesised sums
    # are multiplied out with _mul_into, with the zeros of each "*" dropped.
    # At the end of the product, coefficient times sorted monomial (times
    # those sums) is added once, with its sign, into the sum, and one filter
    # drops the zeros of the whole sum.  parse_factor also returns the
    # degree, and the bound on a product adds the degrees of its factors
    # before the product is built.  That is exact: over the rationals a
    # product of nonzero factors has the sum of their degrees, and a zero
    # factor has degree 0.

    def parse_expr(self) -> PolyExpr:
        return PolyExpr._make(self.bundle, self.parse_sum())

    def parse_sum(self) -> dict:
        tokens = self.tokens
        acc: dict = {}
        sign = 1
        while True:
            ids: list = []
            coeff, terms, degree = self.parse_factor(ids)
            while tokens[self.pos] == "*":
                star = self.pos
                self.pos += 1
                c, right, rdeg = self.parse_factor(ids)
                degree += rdeg
                if degree > MAX_DEGREE:
                    raise self.error(f"product of degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", star)
                coeff *= c
                if not coeff:
                    degree = 0
                    ids.clear()  # unread once the product is zero; bounds its length
                elif right is not None:
                    if terms is None:
                        terms = right
                    else:
                        product: dict = {}
                        _mul_into(product, terms, right)
                        terms = {m: v for m, v in product.items() if v}
            if coeff:
                mono = tuple(sorted(ids))
                if terms is None:
                    acc[mono] = acc.get(mono, 0) + sign * coeff
                else:
                    _mul_into(acc, {mono: coeff}, terms, sign)
            tok = tokens[self.pos]
            if tok != "+" and tok != "-":
                return {m: c for m, c in acc.items() if c}
            self.pos += 1
            sign = 1 if tok == "+" else -1

    def parse_factor(self, ids: list) -> tuple:
        """(coefficient, terms, degree) of the next factor, whose coordinate
        ids it appends to ids.  terms is the term dict of a nonzero
        parenthesised sum, else None; a zero factor has coefficient 0."""
        tokens = self.tokens
        sign = 1
        while tokens[self.pos] == "-":
            self.pos += 1
            sign = -sign
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
            if tokens[self.pos] != "^":
                ids.append(vid)
                return sign, None, 1
            exp = self.parse_power(1, (1,))
            ids += [vid] * exp
            return sign, None, exp
        if tok[:1].isdecimal():
            q = self.expect_int()
            if tokens[self.pos] == "/":
                self.pos += 1
                den = self.expect_int()
                if den == 0:
                    raise self.error("zero denominator", self.pos - 1)
                q = Fraction(q, den)
                q = q.numerator if q.denominator == 1 else q
            if tokens[self.pos] == "^":
                exp = self.parse_power(0, (q,))
                q = q**exp if exp else 1  # as **, which starts from the int 1
            return sign * q, None, 0
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than MAX_NESTING = {MAX_NESTING}", k)
            self.depth += 1
            self.pos += 1
            terms = self.parse_sum()
            degree = max(map(len, terms), default=0)  # after cancellation
            self.expect(")")
            self.depth -= 1
            if tokens[self.pos] == "^":
                exp = self.parse_power(degree, terms.values())
                terms = (PolyExpr._make(self.bundle, terms) ** exp)._terms
                degree *= exp
            return (sign, terms, degree) if terms else (0, None, 0)
        what = "end of input" if not tok else repr(tok)
        raise self.error(f"expected an expression, found {what}", k)

    def parse_power(self, degree: int, coeffs) -> int:
        """The exponent after a "^" of a degree-`degree` base with coefficients
        `coeffs`, within both power bounds."""
        self.pos += 1
        exp = self.expect_int()
        try:
            _check_power(exp, degree)
        except ValueError as e:
            raise self.error(str(e), self.pos - 1) from None
        bits = max((max(abs(c.numerator), c.denominator).bit_length() for c in coeffs), default=0)
        if exp * bits > MAX_POWER_BITS:
            message = f"power {exp} of a {bits}-bit coefficient exceeds MAX_POWER_BITS = {MAX_POWER_BITS}"
            raise self.error(message, self.pos - 1)
        return exp

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
            self.pos += 1
            entries = [self.expect_int()]
            while self.tokens[self.pos] == ",":
                self.pos += 1
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


def parse(source: str) -> SessionFile:
    """Parse a full session file."""
    return _Parser(source).parse_session()


def parse_expression(source: str, bundle: Bundle) -> PolyExpr:
    """Parse a single expression against an existing signature."""
    _check_type(bundle, Bundle, "bundle")
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
