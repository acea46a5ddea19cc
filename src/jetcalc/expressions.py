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
in which coordinates were first seen and never reach output: PolyExpr.terms
decodes to a dict whose monomials are coordinate-sorted tuples of
(JetCoordinate, power) pairs, and printing, JSON and pickling read that view.
Because a monomial holds one id per power, its total degree is bounded by
MAX_DEGREE wherever a power is set: the PolyExpr constructor, from_json and
``**``; the session DSL also checks it at each product, ``*`` itself does not.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Mapping, NamedTuple, Optional, Sequence, Union

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


def _mul_into(acc: dict, a: "PolyExpr", b: "PolyExpr", k: int = 1) -> None:
    """Add k * a * b into the id-form term dict acc without building a * b;
    PolyExpr._make(bundle, acc) then gives the sum.  The caller checks that
    a and b share acc's bundle.  The operand with fewer terms drives the
    outer loop, and a constant outer monomial adds its multiple of the other
    operand term by term, without building or sorting a monomial."""
    ta, tb = a._terms, b._terms
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


@dataclass(frozen=True)
class Bundle:
    """Bundle signature: base variable, fiber variable and parameter names.

    Declared once and carried by every value; mixing signatures raises
    SignatureMismatchError rather than coercing.
    """

    base: tuple[str, ...]
    fiber: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "fiber", tuple(self.fiber))
        object.__setattr__(self, "params", tuple(self.params))
        if not 1 <= len(self.base) <= MAX_BASE_DIM:
            raise ValueError(f"need between 1 and {MAX_BASE_DIM} base variables")
        if len(self.fiber) < 1:
            raise ValueError("need at least one fiber variable")
        names = self.base + self.fiber + self.params
        for name in names:
            if not name.isidentifier() or "_" in name:
                raise ValueError(f"bad variable name {name!r}: must be an identifier without underscores")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in signature: {names}")

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

    def fiber_coord(self, j: int) -> JetCoordinate:
        return self.jet_coord(j, MultiIndex.zero(self.n))

    def param_coord(self, name: str) -> JetCoordinate:
        try:
            k = self.params.index(name)
        except ValueError:
            raise ValueError(f"unknown parameter {name!r}") from None
        return JetCoordinate(PARAM, k)

    def jet_coordinates_up_to(self, max_order: int) -> list[JetCoordinate]:
        """All p^j_sigma with |sigma| <= max_order, fibers outermost, sigma lex."""
        out = []
        for j in range(self.r):
            for sigma in indices_up_to(self.n, max_order):
                out.append(JetCoordinate(JET, j, sigma))
        return out

    def coord_name(self, v: JetCoordinate) -> str:
        from .printing import TEXT, coord_name

        return coord_name(TEXT, self, v)

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
        return cls(tuple(data["base"]), tuple(data["fiber"]), tuple(data.get("params", ())))


def indices_up_to(n: int, max_order: int) -> list[MultiIndex]:
    """All multi-indices of length n with order <= max_order, lex sorted."""
    out = [
        MultiIndex._unchecked(entries)
        for entries in product(range(max_order + 1), repeat=n)
        if sum(entries) <= max_order
    ]
    return out


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

    __slots__ = ("bundle", "_terms", "_jet_order")

    def __init__(self, bundle: Bundle, terms: Optional[Mapping] = None):
        """terms maps monomials, each an iterable of (JetCoordinate, power)
        pairs, to rational coefficients."""
        acc: dict = {}
        for mono, coeff in (terms or {}).items():
            coeff = _as_coeff(coeff)
            norm: dict = {}
            for v, k in mono:
                if not isinstance(v, JetCoordinate):
                    raise TypeError(f"monomial variable {v!r} is not a JetCoordinate")
                _check_coord(bundle, v)
                if not isinstance(k, int) or k <= 0:
                    raise ValueError(f"monomial power must be a positive int, got {k!r}")
                norm[v] = norm.get(v, 0) + k
            degree = sum(norm.values())
            if degree > MAX_DEGREE:
                raise ValueError(f"monomial degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}")
            key = _encode(norm.items())
            acc[key] = acc.get(key, 0) + coeff
        self.bundle = bundle
        self._terms = {m: c for m, c in acc.items() if c}
        self._jet_order = None

    @classmethod
    def _make(cls, bundle: Bundle, terms: dict) -> "PolyExpr":
        # Trusted constructor: keys are id-form monomials, values may be 0.
        self = object.__new__(cls)
        if 0 in terms.values():
            for mono in [m for m, c in terms.items() if not c]:
                del terms[mono]
        self.bundle = bundle
        self._terms = terms
        self._jet_order = None
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
        if self._jet_order is None:
            self._jet_order = max((_ORDER[v] for mono in self._terms for v in mono), default=0)
        return self._jet_order

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

    def constant_value(self) -> Rational:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), 0)

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        get = acc.get
        for mono, c in other._terms.items():
            acc[mono] = get(mono, 0) + c
        return PolyExpr._make(self.bundle, acc)

    __radd__ = __add__

    def __neg__(self) -> "PolyExpr":
        return PolyExpr._make(self.bundle, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "PolyExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        get = acc.get
        for mono, c in other._terms.items():
            acc[mono] = get(mono, 0) - c
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
        _mul_into(acc, self, other)
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
        if max(k, k * self.degree) > MAX_DEGREE:
            raise ValueError(f"power {k} of a degree-{self.degree} expression exceeds MAX_DEGREE = {MAX_DEGREE}")
        out = self.bundle.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyExpr):
            if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
                return self.is_constant() and self.constant_value() == other
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
        """Iterated total derivative D_sigma; order of iteration is immaterial."""
        sigma = sigma if isinstance(sigma, MultiIndex) else MultiIndex(sigma)
        if len(sigma) != self.bundle.n:
            raise ValueError(f"multi-index {sigma} has wrong length")
        out = self
        for i, reps in enumerate(sigma):
            for _ in range(reps):
                out = out.total_derivative(i)
        return out

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
            raise EvaluationError(f"coordinate {self.bundle.coord_name(min(missing))} is not assigned")
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = Fraction(c)
            for v, k in mono:
                val *= _as_coeff(point[v]) ** k
            total += val
        return _as_coeff(total)

    def embed(self, target: Bundle) -> "PolyExpr":
        """Re-home onto a bundle with the same base/fiber names and a superset of parameters."""
        if target.base != self.bundle.base or target.fiber != self.bundle.fiber:
            raise SignatureMismatchError("embed requires identical base and fiber names")
        for name in self.bundle.params:
            if name not in target.params:
                raise SignatureMismatchError(f"target signature lacks parameter {name!r}")

        def move(v: JetCoordinate) -> JetCoordinate:
            return target.param_coord(self.bundle.params[v.index]) if v.kind == PARAM else v

        return PolyExpr(target, {tuple((move(v), k) for v, k in mono): c for mono, c in self.terms.items()})

    # -- serialization and display -------------------------------------------

    def to_json(self) -> dict:
        from .printing import coord_token, display_order

        terms = self.terms
        monos = []
        for mono in display_order(terms):
            monos.append(
                {
                    "coeff": str(Fraction(terms[mono])),
                    "vars": [{"var": coord_token(self.bundle, v), "pow": k} for v, k in mono],
                }
            )
        return {"monomials": monos}

    @classmethod
    def from_json(cls, data: Mapping, bundle: Bundle) -> "PolyExpr":
        from .printing import parse_coord_token

        acc: dict = {}
        for entry in data["monomials"]:
            if not isinstance(entry["coeff"], str):
                raise TypeError(f"coefficient must be a string, got {entry['coeff']!r}")
            coeff = _as_coeff(Fraction(entry["coeff"]))
            mono = tuple((parse_coord_token(bundle, var["var"]), int(var["pow"])) for var in entry.get("vars", ()))
            acc[mono] = acc.get(mono, 0) + coeff
        return cls(bundle, acc)

    def __str__(self) -> str:
        from .printing import poly_text

        return poly_text(self)

    def __repr__(self) -> str:
        return f"PolyExpr({self})"


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
    coeffs = [_as_coeff(q) for q in coeff_pool]
    rng = random.Random(seed)
    pool: list[JetCoordinate] = []
    for k in range(len(bundle.params)):
        pool.append(JetCoordinate(PARAM, k))
    for i in range(bundle.n):
        pool.append(JetCoordinate(BASE, i))
    pool.extend(bundle.jet_coordinates_up_to(max_jet_order))
    ids = [_intern(v) for v in pool]
    acc: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice(coeffs)
        if coeff == 0:
            continue
        deg = rng.randint(0, max_degree)
        key = tuple(sorted(rng.choice(ids) for _ in range(deg)))
        acc[key] = acc.get(key, 0) + coeff
    return PolyExpr._make(bundle, acc)
