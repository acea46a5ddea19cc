"""Matrix total-derivative operators and their algebra.

A CDiffOperator is a rows-by-cols matrix whose (i, j) entry is a finite
sum of coefficient * D_sigma terms, the coefficients being jet-space
polynomials.  Equality is decided on the canonical coefficient maps: the
iterated total derivatives D_sigma are independent over the coefficient
ring, so two operators agree as maps iff their coefficient maps agree.
Composition expands eagerly through the generalized Leibniz rule

    D_sigma (f . ) = sum over kappa <= sigma of
                     binom_product(sigma, kappa) * D_kappa(f) * D_{sigma-kappa}

so every result is again in canonical form and zero-testable.

An operator is built through its one public constructor, which validates:
CDiffOperator(bundle, rows, cols) is the zero operator,
CDiffOperator(bundle, 1, 1, {(0, 0): {sigma: 1}}) is D_sigma, the same cell
with a zero sigma and coefficient e is the multiplication operator e, and
the identity has a 1 at the zero sigma in each diagonal cell.

The D_sigma of an operand come from a DerivativeCache, which keeps them all
and builds each through expressions._derivative, the one D_sigma chain.

Which caches live how long (the policy the calculus kernels and the identity
checks follow): a kernel called without InputChains builds a fresh cache for
each operand it derives, which dies when the kernel returns.  An identity
check builds one InputChains over its input operands, which makes each
input's cache at once, and hands it to every kernel it calls, so each input's
D_sigma chain is built once per check and dies with it; an intermediate (an
inner bracket, an applied operator) is not an input and still gets a fresh
cache.  expressions._parent and the Leibniz
table _leibniz are memoized for the life of the process, behind bounded LRU
caches.

Sums, differences, scalings, products and commutators add into one id-form
operator sum {(i, j): {sigma: term dict}} through _add_into (one
expressions._add_terms per cell and sigma), _compose_into and
_commutator_into, which _wrap turns into an operator once; an identity that
compares two operator sides sums each side this way, and the validating
constructor adds its coefficients into such a sum too.  _wrap is the one
builder that drops the terms and cells of a sum that cancelled; _make, the
trusted constructor, takes cells that are nonzero by construction.

Types are tested once per public call, and kernels test signatures and
shapes only: the constructor tests its bundle, apply and InputChains their
vector operands, and the algebra its operator operand (_check_operand),
through expressions._check_type; _apply_into, which apply and the identity
checks call on operands already tested, checks signature and columns alone.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .expressions import Bundle, PolyExpr, Rational, SignatureMismatchError
from .expressions import _add_terms, _as_coeff, _check_type, _derivative, _field, _mul_into, _one_based
from .multiindex import MultiIndex, binom_product, sub_indices
from .vectorops import VectorOperator


class ShapeMismatchError(ValueError):
    """Operator shapes are incompatible for the requested operation."""


@functools.lru_cache(maxsize=4096)
def _leibniz(sigma: MultiIndex, tau: MultiIndex) -> tuple:
    """The terms of D_sigma after b D_tau: (kappa, sigma - kappa + tau,
    binom_product(sigma, kappa)) for every kappa <= sigma, the derivative
    D_kappa(b) multiplying D_{sigma-kappa+tau}."""
    return tuple((kappa, sigma.checked_sub(kappa) + tau, binom_product(sigma, kappa)) for kappa in sub_indices(sigma))


class DerivativeCache:
    """Memoized iterated total derivatives D_sigma of a sequence of expressions.

    Every D_sigma is kept for the life of the cache.  The chain recurses
    through _derivative, not through get, so that each request is one call
    of get.
    """

    __slots__ = ("exprs", "_memos")

    def __init__(self, exprs: Sequence[PolyExpr]):
        self.exprs = exprs
        self._memos = [{} for _ in range(len(exprs))]

    def get(self, j: int, sigma: MultiIndex) -> PolyExpr:
        """D_sigma of the j-th expression."""
        return _derivative(self.exprs[j], sigma, self._memos[j])


class InputChains:
    """The DerivativeCache of each of a check's input operands, built when
    the chains are and handed out again to every kernel the check passes
    them to; any other operand gets a fresh cache.  Operands are named by
    their slots, and each passes the type gate first: building the chains
    is where a check first touches them.  They are told apart by identity,
    and each cache holds its operand, so no other object can take an id
    while the chains live.  InputChains() hands out fresh caches only."""

    __slots__ = ("_caches",)

    def __init__(self, **operands: VectorOperator):
        for slot, g in operands.items():
            _check_type(g, VectorOperator, slot)
        self._caches = {id(g): DerivativeCache(g) for g in operands.values()}

    def of(self, g) -> DerivativeCache:
        """The cache of g: shared if g is one of the inputs, else fresh."""
        cache = self._caches.get(id(g))
        return DerivativeCache(g) if cache is None else cache


FRESH = InputChains()


class CDiffOperator:
    __slots__ = ("bundle", "rows", "cols", "_entries")

    def __init__(self, bundle: Bundle, rows: int, cols: int, entries: Optional[Mapping] = None):
        """entries maps (i, j) to the terms of that cell: a mapping sigma ->
        coefficient, or an iterable of (sigma, coefficient) pairs.  Terms
        whose sigma is the same multi-index add."""
        _check_type(bundle, Bundle, "bundle")
        for slot, size in (("rows", rows), ("cols", cols)):
            if not isinstance(size, int) or isinstance(size, bool):  # a bool is no size, as in _as_coeff
                raise TypeError(f"{slot} must be an int, got {type(size).__name__}")
        if rows < 1 or cols < 1:
            raise ValueError("operator shape must be at least 1x1")
        acc: dict = {}
        for (i, j), terms in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside shape {rows}x{cols}")
            cell = acc.setdefault((i, j), {})
            for sigma, coeff in terms.items() if isinstance(terms, Mapping) else terms:
                sigma = sigma if isinstance(sigma, MultiIndex) else MultiIndex(sigma)
                if len(sigma) != bundle.n:
                    raise ValueError(f"multi-index {sigma} has wrong length")
                if not isinstance(coeff, PolyExpr):
                    coeff = bundle.const(coeff)
                if coeff.bundle != bundle:
                    raise SignatureMismatchError("coefficient over a different signature")
                _add_terms(cell.setdefault(sigma, {}), coeff._terms)
        CDiffOperator._wrap(bundle, rows, cols, acc, self)

    @classmethod
    def _make(cls, bundle: Bundle, rows: int, cols: int, entries: dict, into=None) -> "CDiffOperator":
        # Trusted constructor: no cell of entries is empty and no coefficient
        # zero.  A computed sum, which may cancel, goes through _wrap.  into
        # is an instance to fill in place of a new one (__init__ passes itself).
        self = object.__new__(cls) if into is None else into
        self.bundle = bundle
        self.rows = rows
        self.cols = cols
        self._entries = entries
        return self

    # -- structure -------------------------------------------------------------

    def entry(self, i: int, j: int) -> dict:
        """Coefficient map of entry (i, j); treat as read-only."""
        return self._entries.get((i, j), {})

    @property
    def order(self) -> int:
        """Max |sigma| over stored terms; 0 for the zero operator."""
        return max((s.order for cell in self._entries.values() for s in cell), default=0)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, CDiffOperator):
            return NotImplemented
        return (
            self.bundle == other.bundle
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self._entries == other._entries
        )

    __hash__ = None

    def _check_operand(self, other: "CDiffOperator") -> None:
        _check_type(other, CDiffOperator, "other")
        if other.bundle != self.bundle:
            raise SignatureMismatchError("operators carry different signatures")

    def _check_same_shape(self, other: "CDiffOperator") -> None:
        self._check_operand(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- linear structure --------------------------------------------------------

    def __add__(self, other) -> "CDiffOperator":
        return self._plus(other, 1)

    def __sub__(self, other) -> "CDiffOperator":
        return self._plus(other, -1)

    def _plus(self, other: "CDiffOperator", k: int) -> "CDiffOperator":
        self._check_same_shape(other)
        acc: dict = {}
        self._add_into(acc)
        other._add_into(acc, k)
        return CDiffOperator._wrap(self.bundle, self.rows, self.cols, acc)

    def _add_into(self, acc: dict, k: int = 1) -> None:
        """Add k * self into acc, an id-form operator sum {(i, j): {sigma: term dict}}."""
        for key, cell in self._entries.items():
            out = acc.setdefault(key, {})
            for sigma, coeff in cell.items():
                _add_terms(out.setdefault(sigma, {}), coeff._terms, k)

    @classmethod
    def _wrap(cls, bundle: Bundle, rows: int, cols: int, acc: dict, into=None) -> "CDiffOperator":
        """The operator of an id-form operator sum, without the terms and
        cells that cancelled; acc is not reused, and into is as in _make.
        The one builder of an operator sum that drops zeros, for computed
        sums and the validating constructor alike."""
        entries = {}
        for ij, cell in acc.items():
            cell = {sigma: coeff for sigma, terms in cell.items() if (coeff := PolyExpr._make(bundle, terms))}
            if cell:
                entries[ij] = cell
        return cls._make(bundle, rows, cols, entries, into)

    def __neg__(self) -> "CDiffOperator":
        return self.scale(-1)

    def scale(self, q: Rational) -> "CDiffOperator":
        acc: dict = {}
        self._add_into(acc, _as_coeff(q))
        return CDiffOperator._wrap(self.bundle, self.rows, self.cols, acc)

    def __rmul__(self, q) -> "CDiffOperator":
        if isinstance(q, (int, Fraction)) and not isinstance(q, bool):
            return self.scale(q)
        return NotImplemented

    # -- action and composition -----------------------------------------------------

    def apply(self, g: VectorOperator, chains: InputChains = FRESH) -> VectorOperator:
        """Act on a vector operator: (Theta g)_i = sum a^{ij}_sigma D_sigma(g_j),
        with the D_sigma(g_j) from chains."""
        _check_type(g, VectorOperator, "g")
        accs = [{} for _ in range(self.rows)]
        self._apply_into(accs, g, 1, chains)
        return VectorOperator._make(self.bundle, accs)

    def _apply_into(self, accs: list, g: VectorOperator, k: int = 1, chains: InputChains = FRESH) -> None:
        """Add k * self(g) into accs, one id-form term dict per row, once g
        has the same signature and rank = cols; g's derivatives come from
        chains.  The caller has tested g's type."""
        if g.bundle != self.bundle:
            raise SignatureMismatchError("operand carries a different signature")
        if g.rank != self.cols:
            raise ShapeMismatchError(f"operator has {self.cols} columns, operand rank {g.rank}")
        cache = chains.of(g)
        for (i, j), cell in self._entries.items():
            for sigma, coeff in cell.items():
                _mul_into(accs[i], coeff._terms, cache.get(j, sigma)._terms, k)

    def compose(self, other: "CDiffOperator") -> "CDiffOperator":
        """Operator product self after other, expanded to canonical form."""
        acc: dict = {}
        self._compose_into(acc, other)
        return CDiffOperator._wrap(self.bundle, self.rows, other.cols, acc)

    def _compose_into(self, acc: dict, other: "CDiffOperator", k: int = 1) -> None:
        """Add k * (self after other) into acc, an id-form operator sum."""
        self._check_operand(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        caches = {key: DerivativeCache(list(cell.values())) for key, cell in other._entries.items()}
        for (i, j), left_cell in self._entries.items():
            for (j2, l), right_cell in other._entries.items():
                if j2 != j:
                    continue
                cache = caches[j2, l]
                out_cell = acc.setdefault((i, l), {})
                for m, tau in enumerate(right_cell):
                    for sigma, a in left_cell.items():
                        for kappa, key, c in _leibniz(sigma, tau):
                            db = cache.get(m, kappa)._terms
                            if db:
                                _mul_into(out_cell.setdefault(key, {}), a._terms, db, k * c)

    def __mul__(self, other):
        if isinstance(other, CDiffOperator):
            return self.compose(other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def commutator(self, other: "CDiffOperator") -> "CDiffOperator":
        """[self, other] = self other - other self; both must be square and equal-shaped."""
        acc: dict = {}
        self._commutator_into(acc, other)
        return CDiffOperator._wrap(self.bundle, self.rows, self.cols, acc)

    def _commutator_into(self, acc: dict, other: "CDiffOperator") -> None:
        """Add [self, other] into acc, an id-form operator sum."""
        self._check_same_shape(other)
        if self.rows != self.cols:
            raise ShapeMismatchError("commutator needs square operators")
        self._compose_into(acc, other)
        other._compose_into(acc, self, -1)

    # -- serialization and display ------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for (i, j) in sorted(self._entries):
            cell = self._entries[(i, j)]
            entries.append(
                {
                    "i": i + 1,
                    "j": j + 1,
                    "terms": [
                        {"sigma": list(sigma), "coeff": cell[sigma].to_json()}
                        for sigma in sorted(cell, key=lambda s: (s.order, s), reverse=True)
                    ],
                }
            )
        return {
            "shape": [self.rows, self.cols],
            "signature": self.bundle.to_json(),
            "entries": entries,
        }

    @classmethod
    def from_json(cls, data: Mapping, bundle: Optional[Bundle] = None) -> "CDiffOperator":
        if bundle is None:
            bundle = Bundle.from_json(_field(data, "signature"))
        shape = _field(data, "shape", list, int)
        if len(shape) != 2:
            raise ValueError(f"field 'shape' must be a list of two ints, got {shape!r}")
        rows, cols = shape
        entries: dict = {}
        for rec in _field({"entries": [], **data}, "entries", list, dict):
            i = _one_based(_field(rec, "i", int), rows, "field 'i'")
            j = _one_based(_field(rec, "j", int), cols, "field 'j'")
            cell = entries.setdefault((i, j), [])
            for term in _field(rec, "terms", list, dict):
                sigma = MultiIndex(tuple(_field(term, "sigma", list, int)))
                cell.append((sigma, PolyExpr.from_json(_field(term, "coeff"), bundle)))
        return cls(bundle, rows, cols, entries)  # which adds the terms of a repeated sigma

    def __str__(self) -> str:
        from .printing import cdiff_text

        return cdiff_text(self)

    def __repr__(self) -> str:
        return f"CDiffOperator({self})"
