"""Multi-index arithmetic for jet coordinates and total derivatives.

A multi-index sigma = (i1, ..., in) records how often each base variable
has been differentiated; its order |sigma| = i1 + ... + in.  Differences
sigma - kappa exist only when kappa fits under sigma entrywise, and the
product of entrywise binomial coefficients is the multiplicity with which
a sub-index occurs when a partial derivative is pushed through an iterated
total derivative.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Iterator, Optional

MAX_BASE_DIM = 8

# Largest jet order |sigma| accepted from input: DSL jet coordinates, CLI
# multi-indices, probe orders and suite jet orders.  The number of jet
# coordinates up to order k grows like k**n, so this bounds the work an input
# can ask for.  Arithmetic inside the library (total derivatives, composition)
# may go past it and is never checked.
MAX_ORDER = 16


def check_order(order: int, what: str) -> None:
    """Raise ValueError naming what if order exceeds MAX_ORDER."""
    if order > MAX_ORDER:
        raise ValueError(f"{what} {order} exceeds the limit {MAX_ORDER}")


class MultiIndex(tuple):
    """Exponent vector over the base variables.

    Instances are tuples of non-negative ints, so hashing, equality and
    lexicographic comparison come for free.  ``+`` is overridden to mean
    entrywise addition (never concatenation).
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "MultiIndex":
        entries = tuple(entries)
        if len(entries) > MAX_BASE_DIM:
            raise ValueError(f"multi-index has {len(entries)} entries, limit is {MAX_BASE_DIM}")
        for e in entries:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"multi-index entries must be non-negative integers, got {entries!r}")
        return tuple.__new__(cls, entries)

    @classmethod
    def _unchecked(cls, entries: tuple) -> "MultiIndex":
        # Hot-path constructor; callers guarantee validity.
        return tuple.__new__(cls, entries)

    @classmethod
    def zero(cls, n: int) -> "MultiIndex":
        return cls((0,) * n)

    @property
    def order(self) -> int:
        """|sigma|, the total number of derivatives."""
        return sum(self)

    def __add__(self, other) -> "MultiIndex":
        if not isinstance(other, tuple):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"multi-index length mismatch: {len(self)} vs {len(other)}")
        if not isinstance(other, MultiIndex):  # a plain tuple is checked as the constructor checks it
            other = MultiIndex(other)
        return MultiIndex._unchecked(tuple(a + b for a, b in zip(self, other)))

    __radd__ = __add__

    def bump(self, i: int) -> "MultiIndex":
        """sigma + 1_i: one more derivative along base variable i (0-based)."""
        return MultiIndex._unchecked(tuple(e + 1 if k == i else e for k, e in enumerate(self)))

    def checked_sub(self, other: "MultiIndex") -> Optional["MultiIndex"]:
        """Entrywise difference, or None when ``other`` does not fit under self."""
        if len(self) != len(other):
            raise ValueError(f"multi-index length mismatch: {len(self)} vs {len(other)}")
        diff = tuple(a - b for a, b in zip(self, other))
        if any(d < 0 for d in diff):
            return None
        return MultiIndex._unchecked(diff)


def binom_product(tau: MultiIndex, kappa: MultiIndex) -> int:
    """Product of entrywise binomial coefficients C(tau_i, kappa_i).

    This is the multiplicity of the sub-index kappa in the expansion of a
    partial derivative moved through the iterated total derivative D_tau;
    requires kappa <= tau entrywise.
    """
    if tau.checked_sub(kappa) is None:
        raise ValueError(f"{kappa} is not contained in {tau}")
    out = 1
    for t, k in zip(tau, kappa):
        out *= math.comb(t, k)
    return out


def sub_indices(sigma: MultiIndex) -> Iterator[MultiIndex]:
    """All kappa <= sigma entrywise, exactly once, in lexicographic order."""
    for entries in product(*(range(e + 1) for e in sigma)):
        yield MultiIndex._unchecked(entries)
