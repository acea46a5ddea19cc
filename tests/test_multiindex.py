import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetcalc import Bundle
from jetcalc.multiindex import MAX_BASE_DIM, MultiIndex, binom_product, sub_indices

small_entries = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)


def multiplicity_map(tau: MultiIndex) -> dict:
    """Multiplicity of each sub-index kappa, from iterating the one-step
    commutation rule: peeling a single total derivative off D_tau sends the
    term for kappa to itself plus the term for kappa + 1_i.

    Independent oracle: no binomial coefficients anywhere.
    """
    acc = {MultiIndex.zero(len(tau)): 1}
    for i, reps in enumerate(tau):
        for _ in range(reps):
            nxt: dict = {}
            for kappa, m in acc.items():
                nxt[kappa] = nxt.get(kappa, 0) + m
                bumped = kappa.bump(i)
                nxt[bumped] = nxt.get(bumped, 0) + m
            acc = nxt
    return acc


def poly_mul(a: list, b: list) -> list:
    """Coefficient-list product, the oracle for (1+t)^k expansions."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestArithmetic:
    def test_add_entrywise(self):
        assert MultiIndex((1, 0)) + MultiIndex((0, 2)) == MultiIndex((1, 2))
        assert MultiIndex((2,)) + MultiIndex((1,)) == MultiIndex((3,))

    def test_add_zero_is_identity(self):
        sigma = MultiIndex((2, 1))
        assert sigma + MultiIndex.zero(2) == sigma

    def test_add_length_mismatch(self):
        with pytest.raises(ValueError):
            MultiIndex((1,)) + MultiIndex((1, 0))

    def test_checked_sub(self):
        assert MultiIndex((2, 1)).checked_sub(MultiIndex((1, 1))) == MultiIndex((1, 0))
        assert MultiIndex((1, 0)).checked_sub(MultiIndex((0, 1))) is None
        sigma = MultiIndex((3, 2))
        assert sigma.checked_sub(sigma) == MultiIndex.zero(2)

    def test_rejects_negative_and_oversized(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))
        with pytest.raises(ValueError, match=f"multi-index has {MAX_BASE_DIM + 1} entries"):
            MultiIndex((0,) * (MAX_BASE_DIM + 1))

    def test_accepts_the_largest_base_dimension(self):
        assert MultiIndex((1,) * MAX_BASE_DIM).order == MAX_BASE_DIM
        bundle = Bundle(tuple(f"x{i}" for i in range(MAX_BASE_DIM)), ("u",))
        coords = bundle.jet_coordinates_up_to(1)
        assert len(coords) == MAX_BASE_DIM + 1
        assert bundle.coord_var(coords[-1]).total_derivative(0).jet_coordinates()

    @given(a=small_entries, b=small_entries)
    def test_add_commutes(self, a, b):
        n = min(len(a), len(b))
        x, y = MultiIndex(a[:n]), MultiIndex(b[:n])
        assert x + y == y + x

    @given(a=small_entries, b=small_entries)
    def test_sub_roundtrip(self, a, b):
        n = min(len(a), len(b))
        x, y = MultiIndex(a[:n]), MultiIndex(b[:n])
        diff = x.checked_sub(y)
        if diff is not None:
            assert diff + y == x


class TestBinomProduct:
    def test_single_step_multiplicity(self):
        # One derivative peels off twice from tau=(2): multiplicity 2 at kappa=(1).
        assert binom_product(MultiIndex((2,)), MultiIndex((1,))) == 2

    def test_mixed_multiplicity(self):
        assert binom_product(MultiIndex((2, 1)), MultiIndex((1, 1))) == 2

    def test_zero_kappa(self):
        assert binom_product(MultiIndex((3, 2, 1)), MultiIndex((0, 0, 0))) == 1

    def test_containment_required(self):
        with pytest.raises(ValueError):
            binom_product(MultiIndex((1, 0)), MultiIndex((0, 1)))

    @given(tau=small_entries)
    def test_matches_iteration_oracle(self, tau):
        tau = MultiIndex(tau)
        oracle = multiplicity_map(tau)
        for kappa in sub_indices(tau):
            assert binom_product(tau, kappa) == oracle[kappa]
        # the oracle produces nothing outside the sub-index set
        assert set(oracle) == set(sub_indices(tau))

    @given(tau=small_entries)
    def test_vandermonde_rows(self, tau):
        # Sum over |kappa| = k of the multiplicities equals the t^k coefficient
        # of prod (1+t)^tau_i, expanded by list convolution.
        tau = MultiIndex(tau)
        if tau.order > 6:
            tau = MultiIndex(tuple(min(e, 2) for e in tau))
        expansion = [1]
        for e in tau:
            for _ in range(e):
                expansion = poly_mul(expansion, [1, 1])
        by_order: dict = {}
        for kappa in sub_indices(tau):
            by_order[kappa.order] = by_order.get(kappa.order, 0) + binom_product(tau, kappa)
        for k, total in by_order.items():
            assert total == expansion[k]


class TestSubIndices:
    def test_listed_examples(self):
        assert list(sub_indices(MultiIndex((1,)))) == [MultiIndex((0,)), MultiIndex((1,))]
        assert list(sub_indices(MultiIndex((0, 0)))) == [MultiIndex((0, 0))]
        assert list(sub_indices(MultiIndex((1, 1)))) == [
            MultiIndex((0, 0)),
            MultiIndex((0, 1)),
            MultiIndex((1, 0)),
            MultiIndex((1, 1)),
        ]

    @given(sigma=small_entries)
    def test_count_and_uniqueness(self, sigma):
        sigma = MultiIndex(sigma)
        subs = list(sub_indices(sigma))
        expected = 1
        for e in sigma:
            expected *= e + 1
        assert len(subs) == expected
        assert len(set(subs)) == len(subs)
        assert subs == sorted(subs)
        assert all(sigma.checked_sub(k) is not None for k in subs)


class TestPlainTupleOperands:
    @pytest.mark.parametrize("other", [(-5,), (True,), (1.0,)], ids=["negative", "bool", "float"])
    def test_checked_as_the_constructor_checks(self, other):
        with pytest.raises(ValueError, match=r"^multi-index entries must be non-negative integers, got"):
            MultiIndex((1,)) + other
        with pytest.raises(ValueError, match=r"^multi-index entries must be non-negative integers, got"):
            other + MultiIndex((1,))

    def test_valid_tuple_adds_entrywise(self):
        for got in (MultiIndex((1, 0)) + (2, 3), (2, 3) + MultiIndex((1, 0))):
            assert got == (3, 3) and type(got) is MultiIndex

    def test_length_mismatch_comes_first(self):
        with pytest.raises(ValueError, match=r"^multi-index length mismatch: 1 vs 9$"):
            MultiIndex((1,)) + (0,) * 9


MULTIINDEX_ERRORS = {
    "checked_sub": (lambda: MultiIndex((1,)).checked_sub(MultiIndex((1, 2))), "multi-index length mismatch: 1 vs 2"),
}


@pytest.mark.parametrize("call, message", MULTIINDEX_ERRORS.values(), ids=MULTIINDEX_ERRORS)
def test_multiindex_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
