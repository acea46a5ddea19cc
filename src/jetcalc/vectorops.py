"""Vector differential operators: tuples of jet-space polynomials.

A VectorOperator is a finite-rank column of PolyExpr values over one
bundle signature.  It models a (generally non-linear) differential
operator acting on sections, written in coordinates; rank-r operators on
a rank-r bundle are the inputs of linearization and the Jacobi bracket.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .expressions import _KIND, JET, Bundle, PolyExpr, Rational, SignatureMismatchError, _check_type, _field
from .expressions import highest_jet_order


class RankMismatchError(ValueError):
    """Operators of incompatible ranks were combined."""


class VectorOperator:
    __slots__ = ("components",)

    def __init__(self, components: Iterable[PolyExpr]):
        components = tuple(components)
        if not components:
            raise ValueError("a vector operator needs at least one component")
        for c in components:  # the first is checked before its bundle is read
            _check_type(c, PolyExpr, "component")
            if c.bundle != components[0].bundle:
                raise SignatureMismatchError("components carry different signatures")
        self.components = components

    @classmethod
    def _make(cls, bundle: Bundle, accs) -> "VectorOperator":
        # Trusted constructor: one id-form term dict per component, see PolyExpr._make.
        self = object.__new__(cls)
        self.components = tuple(PolyExpr._make(bundle, acc) for acc in accs)
        return self

    @classmethod
    def zero(cls, bundle: Bundle) -> "VectorOperator":
        return cls(tuple(bundle.zero() for _ in range(bundle.r)))

    @property
    def bundle(self) -> Bundle:
        return self.components[0].bundle

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        """Max jet order over the components."""
        return highest_jet_order(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def _coerce(self, other) -> "VectorOperator":
        _check_type(other, VectorOperator, "other")
        if other.bundle != self.bundle:
            raise SignatureMismatchError("vector operators carry different signatures")
        if other.rank != self.rank:
            raise RankMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")
        return other

    def __add__(self, other) -> "VectorOperator":
        other = self._coerce(other)
        return VectorOperator(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other) -> "VectorOperator":
        other = self._coerce(other)
        return VectorOperator(a - b for a, b in zip(self.components, other.components))

    def __neg__(self) -> "VectorOperator":
        return VectorOperator(-c for c in self.components)

    def scale(self, q: Rational) -> "VectorOperator":
        return VectorOperator(c.scale(q) for c in self.components)

    def __rmul__(self, q) -> "VectorOperator":
        if isinstance(q, (int, Fraction)) and not isinstance(q, bool):
            return self.scale(q)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorOperator):
            return NotImplemented
        return self.bundle == other.bundle and self.components == other.components

    __hash__ = None

    def __getitem__(self, i: int) -> PolyExpr:
        return self.components[i]

    def __len__(self) -> int:
        return len(self.components)

    def strip_free_terms(self) -> "VectorOperator":
        """Drop every monomial containing no jet coordinate.

        What remains is the part of the operator that actually differentiates;
        the discarded free term is a function of base variables and parameters
        only.
        """
        out = []
        for c in self.components:
            kept = {m: q for m, q in c._terms.items() if any(_KIND[v] == JET for v in m)}
            out.append(PolyExpr._make(c.bundle, kept))
        return VectorOperator(out)

    def to_json(self) -> dict:
        return {
            "signature": self.bundle.to_json(),
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, data: Mapping, bundle: Optional[Bundle] = None) -> "VectorOperator":
        if bundle is None:
            bundle = Bundle.from_json(_field(data, "signature"))
        return cls(PolyExpr.from_json(c, bundle) for c in _field(data, "components", list))

    def __str__(self) -> str:
        from .printing import vector_text

        return vector_text(self)

    def __repr__(self) -> str:
        return f"VectorOperator({self})"
