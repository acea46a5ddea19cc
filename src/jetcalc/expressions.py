"""Canonical polynomial expressions on the space of infinite jets.

Coordinates come in three kinds: base variables x^i, jet coordinates
p^j_sigma (the fiber variables u^j and all their derivative coordinates,
indexed by a multi-index sigma), and named parameters, which behave as
constants under every derivative.  A PolyExpr is a finite sum of monomials
in these coordinates with exact rational coefficients, kept in a canonical
form (sorted variables, no zero coefficients, reduced fractions) so that
equality of values is equality of representations and every identity check
reduces to a zero test.

Representation.  Each JetCoordinate is interned once per process to a small
int id.  The intern table also holds each id's kind and |sigma| and, for
each base direction i, what the total derivative D_i makes of the id: the id
of the shifted jet coordinate, "drop" for x^i, or "skip" for parameters and
the other base variables; these entries fill lazily, so MultiIndex.bump runs
once per coordinate and direction.  Inside a PolyExpr a monomial is a sorted
tuple of ids with one id per power (u^2*u_x is (id_u, id_u, id_ux)), so a
product is a sorted concatenation, a total derivative one table lookup per
distinct factor and the degree the tuple's length.  Ids depend on the order
in which coordinates were first seen and never reach output: the printers and
to_json read the id form in print order through the printing module's
per-bundle name tables, and PolyExpr.terms decodes to a dict whose monomials
are coordinate-sorted tuples of (JetCoordinate, power) pairs, which pickling,
evaluate and substitute read.
Because a monomial holds one id per power, its total degree is bounded by
MAX_DEGREE wherever a power is set: the PolyExpr constructor, from_json and
``**``; the session DSL also checks it at each product, ``*`` itself does not.

Operand types.  _check_type is the one operand type test: every public call
of the package runs it once per operand, before it reads any attribute, and
raises a TypeError that names the slot ("g must be a VectorOperator, got
int").  A bundle slot is an operand too: the PolyExpr and CDiffOperator
constructors, PolyExpr.from_json, random_expr, random_vector_operator and
dsl.parse_expression test theirs.  The kernels behind a public call test
signatures and shapes only.
"""

from __future__ import annotations

import functools
import random
import threading
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .multiindex import MAX_BASE_DIM, MultiIndex

Rational = Union[int, Fraction]

# Coordinate kinds; the numeric values fix the canonical variable order:
# parameters, then base variables, then jet coordinates.
PARAM, BASE, JET = 0, 1, 2

# Largest total degree of a monomial, and largest exponent of ``**``.
MAX_DEGREE = 1000


class SignatureMismatchError(ValueError):
    """Values over different bundle signatures were combined."""


class EvaluationError(LookupError):
    """A coordinate required by evaluate() was not assigned."""


class JetCoordinate(NamedTuple):
    """A single coordinate on jet space.

    kind is one of PARAM, BASE, JET; index is the parameter/base/fiber
    index (0-based); sigma is the derivative multi-index and is empty for
    parameters and base variables.  p^j with sigma == 0 is the fiber
    variable u^j itself.
    """

    kind: int
    index: int
    sigma: MultiIndex = MultiIndex(())


def _check_type(value, cls, slot: str) -> None:
    """Raise a TypeError naming slot unless value is a cls, or one of a tuple
    of classes: the one operand type test, which each public call runs once
    per operand before it reads an attribute."""
    if not isinstance(value, cls):
        kinds = " or ".join(c.__name__ for c in cls) if type(cls) is tuple else cls.__name__
        raise TypeError(f"{slot} must be {'an' if kinds[0] in 'AEIOU' else 'a'} {kinds}, got {type(value).__name__}")


def _as_coeff(q) -> Rational:
    """Normalize a rational coefficient; integral fractions collapse to int."""
    if isinstance(q, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(q, int):
        return q
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    raise TypeError(f"expected int or Fraction, got {type(q).__name__}")


# -- the intern table ----------------------------------------------------------

_COORDS: list = []  # id -> JetCoordinate
_IDS: dict = {}  # JetCoordinate -> id
_KIND: list = []  # id -> kind
_ORDER: list = []  # id -> |sigma|
_SHIFTS = tuple({} for _ in range(MAX_BASE_DIM))  # per direction i: id -> id, _DROP or _SKIP
_DROP, _SKIP = -1, -2  # negative, so a shift entry t is an id exactly when t >= 0
_LOCK = threading.Lock()


def _intern(v: JetCoordinate) -> int:
    got = _IDS.get(v)
    if got is None:
        with _LOCK:
            got = _IDS.get(v)
            if got is None:
                sigma = MultiIndex._unchecked(tuple(v.sigma))
                got = len(_COORDS)
                _COORDS.append(JetCoordinate(v.kind, v.index, sigma))
                _KIND.append(v.kind)
                _ORDER.append(sum(sigma))
                _IDS[v] = got
    return got


def _shift(i: int, v: int) -> int:
    """Fill in and return what D_i makes of id v."""
    c = _COORDS[v]
    if c.kind == JET:
        t = _intern(JetCoordinate(JET, c.index, c.sigma.bump(i)))
    elif c.kind == BASE and c.index == i:
        t = _DROP
    else:
        t = _SKIP
    _SHIFTS[i][v] = t
    return t


def _encode(pairs) -> tuple:
    """Id-form monomial of (JetCoordinate, power) pairs."""
    return tuple(sorted(chain.from_iterable(repeat(_intern(v), k) for v, k in pairs)))


def _decode(mono: tuple) -> tuple:
    """Coordinate-sorted (JetCoordinate, power) pairs of an id-form monomial."""
    return tuple(sorted((_COORDS[v], mono.count(v)) for v in set(mono)))


def _add_terms(acc: dict, terms: dict, k: Rational = 1) -> None:
    """Add k * terms, an id-form term dict, into acc.  The one adding loop of
    a sum outside the product kernels; zeros stay in acc until PolyExpr._make
    or CDiffOperator._wrap drops them."""
    get = acc.get
    for m, c in terms.items():
        acc[m] = get(m, 0) + k * c


def _check_power(k: int, degree: int) -> None:
    """Raise a ValueError unless k, and the degree of the k-th power of a
    degree-`degree` expression, are at most MAX_DEGREE: the bound of ``**``
    and of the session DSL's ``^``."""
    if max(k, k * degree) > MAX_DEGREE:
        raise ValueError(f"power {k} of a degree-{degree} expression exceeds MAX_DEGREE = {MAX_DEGREE}")


def _mul_into(acc: dict, ta: dict, tb: dict, k: int = 1) -> None:
    """Add k * ta * tb, for id-form term dicts ta and tb, into acc without
    building the product; PolyExpr._make(bundle, acc) then gives the sum.  The
    caller checks that all share one bundle.  The operand with fewer terms
    drives the outer loop, and a constant outer monomial adds its multiple of
    the other operand term by term, without building or sorting a monomial."""
    if len(ta) > len(tb):
        ta, tb = tb, ta
    get = acc.get
    inner = tb.items()
    for m1, c1 in ta.items():
        if k != 1:
            c1 = k * c1
        if not m1:
            for m2, c2 in inner:
                acc[m2] = get(m2, 0) + c1 * c2
            continue
        for m2, c2 in inner:
            m = tuple(sorted(m1 + m2))
            acc[m] = get(m, 0) + c1 * c2


class _Record:
    """Equality and repr over the instance's fields, as a dataclass gives them."""

    __hash__ = None

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


_JSON_KINDS = {  # a JSON type's name, alone and in the plural
    dict: ("an object", "objects"),
    list: ("a list", "lists"),
    str: ("a string", "strings"),
    int: ("an int", "ints"),
}


def _field(data, key: str, kind: Optional[type] = None, item: Optional[type] = None):
    """data[key] of a JSON document: of type kind, and a list of items if item
    is given.  A document of another shape raises a ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with field {key!r}, got {data!r}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    value = data[key]
    if kind and (type(value) is not kind or item and any(type(v) is not item for v in value)):
        what = f"a list of {_JSON_KINDS[item][1]}" if item else _JSON_KINDS[kind][0]
        raise ValueError(f"field {key!r} must be {what}, got {value!r}")
    return value


def _one_based(i: int, count: int, what: str) -> int:
    """The 0-based form of a 1-based JSON index, which must lie in 1..count."""
    if not 1 <= i <= count:
        raise ValueError(f"{what} is {i}, out of range 1..{count}")
    return i - 1


class _Signature(NamedTuple):
    base: tuple[str, ...]
    fiber: tuple[str, ...]
    params: tuple[str, ...]


class Bundle(_Signature):
    """Bundle signature: base variable, fiber variable and parameter names.

    Declared once and carried by every value; mixing signatures raises
    SignatureMismatchError rather than coercing.  A tuple of the three name
    tuples, so equality and hashing run in C; the constructor normalises and
    validates, also when a pickle is loaded.
    """

    __slots__ = ()

    def __new__(cls, base, fiber, params=()):
        self = super().__new__(cls, tuple(base), tuple(fiber), tuple(params))
        if not 1 <= len(self.base) <= MAX_BASE_DIM:
            raise ValueError(f"need between 1 and {MAX_BASE_DIM} base variables")
        if len(self.fiber) < 1:
            raise ValueError("need at least one fiber variable")
        names = self.base + self.fiber + self.params
        for name in names:
            if not isinstance(name, str) or not name.isidentifier() or "_" in name:
                raise ValueError(f"bad variable name {name!r}: must be an identifier without underscores")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in signature: {names}")
        return self

    @property
    def n(self) -> int:
        return len(self.base)

    @property
    def r(self) -> int:
        return len(self.fiber)

    # -- coordinates ------------------------------------------------------

    def base_coord(self, i: int) -> JetCoordinate:
        if not 0 <= i < self.n:
            raise ValueError(f"base index {i} out of range")
        return JetCoordinate(BASE, i)

    def jet_coord(self, j: int, sigma) -> JetCoordinate:
        if not 0 <= j < self.r:
            raise ValueError(f"fiber index {j} out of range")
        sigma = sigma if isinstance(sigma, MultiIndex) else MultiIndex(sigma)
        if len(sigma) != self.n:
            raise ValueError(f"multi-index {sigma} has wrong length for {self.n} base variables")
        return JetCoordinate(JET, j, sigma)

    def param_coord(self, name: str) -> JetCoordinate:
        try:
            k = self.params.index(name)
        except ValueError:
            raise ValueError(f"unknown parameter {name!r}") from None
        return JetCoordinate(PARAM, k)

    def jet_coordinates_up_to(self, max_order: int) -> list[JetCoordinate]:
        """All p^j_sigma with |sigma| <= max_order, fibers outermost, sigma lex."""
        return [JetCoordinate(JET, j, sigma) for j in range(self.r) for sigma in indices_up_to(self.n, max_order)]

    # -- expression constructors ------------------------------------------

    def const(self, q: Rational) -> "PolyExpr":
        q = _as_coeff(q)
        return PolyExpr._make(self, {(): q} if q else {})

    def zero(self) -> "PolyExpr":
        return PolyExpr._make(self, {})

    def one(self) -> "PolyExpr":
        return self.const(1)

    def base_var(self, i: int) -> "PolyExpr":
        return PolyExpr._make(self, {(_intern(self.base_coord(i)),): 1})

    def jet(self, j: int, sigma) -> "PolyExpr":
        return PolyExpr._make(self, {(_intern(self.jet_coord(j, sigma)),): 1})

    def fiber_var(self, j: int) -> "PolyExpr":
        return self.jet(j, MultiIndex.zero(self.n))

    def param(self, name: str) -> "PolyExpr":
        return PolyExpr._make(self, {(_intern(self.param_coord(name)),): 1})

    def coord_var(self, v: JetCoordinate) -> "PolyExpr":
        _check_coord(self, v)
        return PolyExpr._make(self, {(_intern(v),): 1})

    def to_json(self) -> dict:
        return {"base": list(self.base), "fiber": list(self.fiber), "params": list(self.params)}

    @classmethod
    def from_json(cls, data: Mapping) -> "Bundle":
        if not isinstance(data, dict):
            raise ValueError(f"field 'signature' must be an object, got {data!r}")
        return cls(*(_field({"params": [], **data}, key, list, str) for key in cls._fields))


def indices_up_to(n: int, max_order: int) -> list[MultiIndex]:
    """All multi-indices of length n with order <= max_order, lex sorted."""
    return [
        MultiIndex._unchecked(entries)
        for entries in product(range(max_order + 1), repeat=n)
        if sum(entries) <= max_order
    ]


def highest_jet_order(exprs: Iterable["PolyExpr"]) -> int:
    """Highest |sigma| among the jet coordinates of all of exprs; 0 if none.
    One pass, where max of each jet_order would cost a call per expression."""
    return max((_ORDER[v] for e in exprs for mono in e._terms for v in mono), default=0)


def _check_coord(bundle: Bundle, v: JetCoordinate) -> None:
    if v.kind == PARAM:
        ok = 0 <= v.index < len(bundle.params) and len(v.sigma) == 0
    elif v.kind == BASE:
        ok = 0 <= v.index < bundle.n and len(v.sigma) == 0
    elif v.kind == JET:
        ok = 0 <= v.index < bundle.r and len(v.sigma) == bundle.n
    else:
        ok = False
    if not ok:
        raise ValueError(f"coordinate {v} does not belong to signature {bundle}")


class PolyExpr:
    """A polynomial over the jet coordinates of one bundle, in canonical form.

    Values are immutable; all arithmetic returns new instances.  The usual
    operators work, with ints and Fractions coerced to constants.
    """

    __slots__ = ("bundle", "_terms")

    def __init__(self, bundle: Bundle, terms: Optional[Mapping] = None):
        """terms maps monomials, each an iterable of (JetCoordinate, power)
        pairs, to rational coefficients."""
        _check_type(bundle, Bundle, "bundle")
        acc: dict = {}
        for mono, coeff in (terms or {}).items():
            coeff = _as_coeff(coeff)
            norm: dict = {}
            for v, k in mono:
                _check_type(v, JetCoordinate, "monomial variable")
                _check_coord(bundle, v)
                if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
                    raise ValueError(f"monomial power must be a positive int, got {k!r}")
                norm[v] = norm.get(v, 0) + k
            degree = sum(norm.values())
            if degree > MAX_DEGREE:
                raise ValueError(f"monomial degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")
            key = _encode(norm.items())
            acc[key] = acc.get(key, 0) + coeff
        self.bundle = bundle
        self._terms = PolyExpr._make(bundle, acc)._terms

    @classmethod
    def _make(cls, bundle: Bundle, terms: dict) -> "PolyExpr":
        # Trusted constructor: keys are id-form monomials, values may be 0.
        # A dict with no zero is adopted as it is.  One with zeros is replaced
        # by a new dict of its nonzero terms, never pruned in place: a dict
        # does not shrink when keys are deleted, so a sum that cancelled would
        # keep its full-sized table.  Callers must not reuse terms either way.
        self = object.__new__(cls)
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        self.bundle = bundle
        self._terms = terms
        return self

    def __reduce__(self):
        # Rebuild from the decoded view: ids are local to one process.
        return PolyExpr, (self.bundle, self.terms)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """A fresh dict of monomial -> coefficient, each monomial a
        coordinate-sorted tuple of (JetCoordinate, power) pairs."""
        return {_decode(m): c for m, c in self._terms.items()}

    @property
    def jet_order(self) -> int:
        """Highest |sigma| among jet coordinates present; 0 if none."""
        return highest_jet_order((self,))

    @property
    def degree(self) -> int:
        """Total degree of the largest monomial; 0 for constants and zero."""
        return max(map(len, self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not any(self._terms)

    def coordinates(self) -> set[JetCoordinate]:
        return {_COORDS[v] for mono in self._terms for v in mono}

    def jet_coordinates(self) -> set[JetCoordinate]:
        return {_COORDS[v] for mono in self._terms for v in mono if _KIND[v] == JET}

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> Optional["PolyExpr"]:
        if isinstance(other, PolyExpr):
            if other.bundle != self.bundle:
                raise SignatureMismatchError(
                    f"cannot combine values over {self.bundle} and {other.bundle}"
                )
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.bundle.const(other)
        return None

    def __add__(self, other) -> "PolyExpr":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "PolyExpr":
        return PolyExpr._make(self.bundle, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "PolyExpr":
        return self._plus(other, -1)

    def _plus(self, other, k: int) -> "PolyExpr":
        """self + k * other, once other is coerced."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        _add_terms(acc, other._terms, k)
        return PolyExpr._make(self.bundle, acc)

    def __rsub__(self, other) -> "PolyExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "PolyExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict = {}
        _mul_into(acc, self._terms, other._terms)
        return PolyExpr._make(self.bundle, acc)

    __rmul__ = __mul__

    def scale(self, q: Rational) -> "PolyExpr":
        q = _as_coeff(q)
        if q == 0:
            return self.bundle.zero()
        return PolyExpr._make(self.bundle, {m: c * q for m, c in self._terms.items()})

    def __pow__(self, k: int) -> "PolyExpr":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        _check_power(k, self.degree)
        out = self.bundle.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyExpr):
            if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
                return self.is_constant() and self._terms.get((), 0) == other
            return NotImplemented
        return self.bundle == other.bundle and self._terms == other._terms

    __hash__ = None  # mutable-looking container; equality is structural

    # -- calculus -----------------------------------------------------------

    def partial(self, v: JetCoordinate) -> "PolyExpr":
        """Formal partial derivative with respect to a single coordinate."""
        _check_coord(self.bundle, v)
        vid = _IDS.get(v)
        acc: dict = {}
        get = acc.get
        for mono, c in self._terms.items():
            k = mono.count(vid)
            if k:
                pos = mono.index(vid)
                m = mono[:pos] + mono[pos + 1:]
                acc[m] = get(m, 0) + k * c
        return PolyExpr._make(self.bundle, acc)

    def _jet_partials(self) -> dict:
        """{v: self.partial(v)} for every jet coordinate v present, from one
        pass over the terms; no value is zero."""
        accs: dict = {}
        for mono, c in self._terms.items():
            last = len(mono) - 1
            start = 0
            for pos, v in enumerate(mono):
                if pos < last and mono[pos + 1] == v:
                    continue
                end = pos + 1
                k = end - start
                start = end
                if _KIND[v] != JET:
                    continue
                acc = accs.get(v)
                if acc is None:
                    acc = accs[v] = {}
                # Distinct monomials lose one v to distinct monomials: no sums.
                acc[mono[:pos] + mono[end:]] = c if k == 1 else k * c
        return {_COORDS[v]: PolyExpr._make(self.bundle, acc) for v, acc in accs.items()}

    def total_derivative(self, i: int) -> "PolyExpr":
        """Total derivative along base variable i:
        d/dx^i plus the shift p^j_sigma -> p^j_{sigma+1_i} through the chain rule.
        """
        if not 0 <= i < self.bundle.n:
            raise ValueError(f"base index {i} out of range")
        shift = _SHIFTS[i]
        acc: dict = {}
        get = acc.get
        for mono, c in self._terms.items():
            # Each run of equal ids is one factor v^k: act once, at the run's
            # last position, scaled by the run length k.
            last = len(mono) - 1
            start = 0
            for pos, v in enumerate(mono):
                if pos < last and mono[pos + 1] == v:
                    continue
                end = pos + 1
                k = end - start
                start = end
                try:
                    t = shift[v]
                except KeyError:
                    t = _shift(i, v)
                if t >= 0:
                    m = list(mono)
                    m[pos] = t
                    m.sort()
                    m = tuple(m)
                elif t == _DROP:
                    m = mono[:pos] + mono[end:]
                else:
                    continue
                acc[m] = get(m, 0) + (c if k == 1 else k * c)
        return PolyExpr._make(self.bundle, acc)

    def total_derivative_multi(self, sigma) -> "PolyExpr":
        """Iterated total derivative D_sigma, built by _derivative's chain;
        jet_coord checks that sigma has one entry per base variable."""
        return _derivative(self, self.bundle.jet_coord(0, sigma).sigma, {})

    def substitute(self, mapping: Mapping[JetCoordinate, "PolyExpr"]) -> "PolyExpr":
        """Replace coordinates by expressions; unmapped coordinates stay."""
        out = self.bundle.zero()
        for mono, c in self.terms.items():
            term = self.bundle.const(c)
            for v, k in mono:
                rep = mapping.get(v)
                if rep is None:
                    factor = self.bundle.coord_var(v)
                else:
                    factor = rep if isinstance(rep, PolyExpr) else self.bundle.const(rep)
                    if factor.bundle != self.bundle:
                        raise SignatureMismatchError("substitution value over a different signature")
                term = term * factor ** k
            out = out + term
        return out

    def evaluate(self, point: Mapping[JetCoordinate, Rational]) -> Rational:
        """Exact value at a full assignment of coordinates to rationals."""
        missing = [v for v in self.coordinates() if v not in point]
        if missing:
            name = printing.coord_name(printing.TEXT, self.bundle, min(missing))
            raise EvaluationError(f"coordinate {name} is not assigned")
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = Fraction(c)
            for v, k in mono:
                val *= _as_coeff(point[v]) ** k
            total += val
        return _as_coeff(total)

    # -- serialization and display -------------------------------------------

    def to_json(self) -> dict:
        tokens = printing.name_table(None, self.bundle)
        monos = [
            {"coeff": str(c), "vars": [{"var": tokens[v], "pow": k} for v, k in pairs]}
            for pairs, c in printing.print_order(self)
        ]
        return {"monomials": monos}

    @classmethod
    def from_json(cls, data: Mapping, bundle: Bundle) -> "PolyExpr":
        _check_type(bundle, Bundle, "bundle")
        acc: dict = {}
        for entry in _field(data, "monomials", list, dict):
            coeff = _field(entry, "coeff", str)
            mono = tuple(
                (printing.parse_coord_token(bundle, _field(var, "var", str)), _field(var, "pow"))
                for var in _field({"vars": [], **entry}, "vars", list, dict)
            )
            try:
                acc[mono] = acc.get(mono, 0) + _as_coeff(Fraction(coeff))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"field 'coeff' must be a rational 'num/den', got {coeff!r}") from None
        return cls(bundle, acc)

    def __str__(self) -> str:
        return printing.poly_text(self)

    def __repr__(self) -> str:
        return f"PolyExpr({self})"


# -- the D_sigma chain -----------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _parent(sigma: MultiIndex) -> tuple:
    """(sigma minus one at its first nonzero entry i, i): D_sigma is built
    as D_i of the parent's derivative."""
    i = next(k for k, v in enumerate(sigma) if v)
    return MultiIndex._unchecked(tuple(e - 1 if k == i else e for k, e in enumerate(sigma))), i


def _derivative(e: PolyExpr, sigma: MultiIndex, memo: dict) -> PolyExpr:
    """D_sigma(e), each one built by one total derivative from its memoized
    parent and kept in memo, a dict sigma -> D_sigma(e) for this e alone."""
    got = memo.get(sigma)
    if got is None:
        got = e
        if sigma.order:
            parent, i = _parent(sigma)
            got = _derivative(e, parent, memo).total_derivative(i)
        memo[sigma] = got
    return got


@functools.lru_cache(maxsize=256)
def _sample_pool(params: int, n: int, r: int, max_jet_order: int) -> tuple:
    """Ids of the coordinates random_expr draws from: the parameters, the base
    variables, then every p^j_sigma with |sigma| <= max_jet_order in
    jet_coordinates_up_to order.  Ids never change once interned, so the
    tuple is memoized for the life of the process."""
    pool = [JetCoordinate(PARAM, k) for k in range(params)] + [JetCoordinate(BASE, i) for i in range(n)]
    pool += [JetCoordinate(JET, j, sigma) for j in range(r) for sigma in indices_up_to(n, max_jet_order)]
    return tuple(_intern(v) for v in pool)


def random_expr(
    bundle: Bundle,
    seed: int,
    max_jet_order: int = 2,
    max_degree: int = 2,
    coeff_pool: Sequence[Rational] = (-2, -1, 1, 2),
    max_terms: int = 4,
) -> PolyExpr:
    """Deterministic random polynomial within the stated bounds.

    The same seed always yields the same expression; zero coefficients
    drawn from the pool simply thin the expression out.
    """
    if max_jet_order < 0 or not 0 <= max_degree <= MAX_DEGREE or max_terms < 1 or not coeff_pool:
        raise ValueError("bounds must be positive, max_degree at most MAX_DEGREE and the coefficient pool non-empty")
    _check_type(bundle, Bundle, "bundle")
    coeffs = [_as_coeff(q) for q in coeff_pool]
    rng = random.Random(seed)
    ids = _sample_pool(len(bundle.params), bundle.n, bundle.r, max_jet_order)
    acc: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice(coeffs)
        if coeff == 0:
            continue
        deg = rng.randint(0, max_degree)
        key = tuple(sorted(rng.choice(ids) for _ in range(deg)))
        acc[key] = acc.get(key, 0) + coeff
    return PolyExpr._make(bundle, acc)


# Last, because printing imports this module's names.
from . import printing  # noqa: E402
