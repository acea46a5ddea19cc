import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from jetcalc import (
    Bundle,
    CDiffOperator,
    ShapeMismatchError,
    SignatureMismatchError,
    VectorOperator,
    random_expr,
)
from jetcalc.expressions import _parent, indices_up_to
from jetcalc.multiindex import MultiIndex
from jetcalc.operators import DerivativeCache, _leibniz
from jetcalc.calculus import random_vector_operator


def d_x(bundle, coeff=1):
    return CDiffOperator(bundle, 1, 1, {(0, 0): {(1,): coeff}})


def identity(bundle):
    return CDiffOperator(bundle, bundle.r, bundle.r, {(i, i): {(0,) * bundle.n: 1} for i in range(bundle.r)})


def times(e):
    return CDiffOperator(e.bundle, 1, 1, {(0, 0): {(0,) * e.bundle.n: e}})


def random_cdiff(bundle, seed, rows, cols, max_order=2):
    rng = random.Random(seed)
    entries = {}
    for i in range(rows):
        for j in range(cols):
            for _ in range(rng.randint(0, 2)):
                sigma = MultiIndex(tuple(rng.randint(0, max_order) for _ in range(bundle.n)))
                if sigma.order > max_order:
                    continue
                coeff = random_expr(bundle, rng.randrange(2**30), max_jet_order=1, max_degree=1)
                cell = entries.setdefault((i, j), {})
                cell[sigma] = cell.get(sigma, bundle.zero()) + coeff
    return CDiffOperator(bundle, rows, cols, entries)


class TestApply:
    def test_first_order_action(self, intro_pair):
        # expected value computed with the expression-level total derivative,
        # independently of the operator plumbing
        b, f, g = intro_pair
        p = b.jet(0, (1,))
        theta = d_x(b, 2 * p)
        expected = 2 * p * g[0].total_derivative(0)
        assert theta.apply(g) == VectorOperator([expected])

    def test_identity(self, plane_bundle):
        g = random_vector_operator(plane_bundle, 9)
        assert identity(plane_bundle).apply(g) == g

    def test_zero(self, plane_bundle):
        g = random_vector_operator(plane_bundle, 10)
        out = CDiffOperator(plane_bundle, 2, 2).apply(g)
        assert out.is_zero()

    def test_shape_mismatch(self, plane_bundle):
        theta = identity(plane_bundle)
        with pytest.raises(ShapeMismatchError):
            theta.apply(VectorOperator([plane_bundle.fiber_var(0)]))


class TestCompose:
    def test_monomials_stack(self, scalar_bundle):
        b = scalar_bundle
        assert d_x(b).compose(d_x(b)) == CDiffOperator(b, 1, 1, {(0, 0): {(2,): 1}})

    def test_coefficient_passes_left(self, scalar_bundle):
        b = scalar_bundle
        p = b.jet(0, (1,))
        left = d_x(b, 2 * p)
        expected = CDiffOperator(b, 1, 1, {(0, 0): {(2,): 2 * p}})
        assert left.compose(d_x(b)) == expected

    def test_leibniz_expansion(self, scalar_bundle):
        b = scalar_bundle
        p, p2 = b.jet(0, (1,)), b.jet(0, (2,))
        expected = CDiffOperator(b, 1, 1, {(0, 0): {(2,): 2 * p, (1,): 2 * p2}})
        assert d_x(b).compose(d_x(b, 2 * p)) == expected

    def test_apply_homomorphism(self, plane_bundle):
        for seed in range(15):
            a = random_cdiff(plane_bundle, seed, 2, 2)
            b = random_cdiff(plane_bundle, seed + 100, 2, 2)
            g = random_vector_operator(plane_bundle, seed + 200)
            assert a.compose(b).apply(g) == a.apply(b.apply(g))

    def test_rectangular_shapes(self, plane_bundle):
        a = random_cdiff(plane_bundle, 1, 1, 2)
        b = random_cdiff(plane_bundle, 2, 2, 2)
        g = random_vector_operator(plane_bundle, 3)
        assert a.compose(b).apply(g) == a.apply(b.apply(g))
        with pytest.raises(ShapeMismatchError):
            b.compose(CDiffOperator(plane_bundle, 1, 2))


class TestCommutator:
    def test_running_example(self, intro_pair):
        b, f, g = intro_pair
        p, p2 = b.jet(0, (1,)), b.jet(0, (2,))
        lhs = d_x(b, 2 * p).commutator(d_x(b))
        assert lhs == CDiffOperator(b, 1, 1, {(0, 0): {(1,): -2 * p2}})

    def test_self_commutator_vanishes(self, plane_bundle):
        theta = random_cdiff(plane_bundle, 4, 2, 2)
        assert theta.commutator(theta).is_zero()

    def test_multiplication_operator(self, scalar_bundle):
        b = scalar_bundle
        assert d_x(b).commutator(times(b.fiber_var(0))) == times(b.jet(0, (1,)))

    def test_jacobi_identity(self, scalar_bundle):
        for seed in range(10):
            a = random_cdiff(scalar_bundle, seed, 1, 1)
            b = random_cdiff(scalar_bundle, seed + 50, 1, 1)
            c = random_cdiff(scalar_bundle, seed + 99, 1, 1)
            total = (
                a.commutator(b.commutator(c))
                + b.commutator(c.commutator(a))
                + c.commutator(a.commutator(b))
            )
            assert total.is_zero()

    def test_requires_square(self, plane_bundle):
        a = CDiffOperator(plane_bundle, 1, 2)
        with pytest.raises(ShapeMismatchError):
            a.commutator(a)


class TestLinearStructure:
    def test_additive_identity(self, plane_bundle):
        theta = random_cdiff(plane_bundle, 7, 2, 2)
        zero = CDiffOperator(plane_bundle, 2, 2)
        assert theta + zero == theta
        assert (theta - theta).is_zero()

    def test_scale(self, scalar_bundle):
        b = scalar_bundle
        p = b.jet(0, (1,))
        assert 2 * d_x(b, p) == d_x(b, 2 * p)

    def test_negation_is_scaling_by_minus_one(self, plane_bundle):
        theta = random_cdiff(plane_bundle, 7, 2, 2)
        assert not theta.is_zero()
        assert -theta == theta.scale(-1)
        assert (theta + -theta).is_zero()
        assert theta.scale(0) == CDiffOperator(plane_bundle, 2, 2)
        assert theta.scale(Fraction(4, 2)) == theta + theta

    def test_order(self, scalar_bundle):
        b = scalar_bundle
        assert CDiffOperator(b, 1, 1).order == 0
        assert CDiffOperator(b, 1, 1, {(0, 0): {(3,): 1}}).order == 3

    def test_mul_composes_or_scales(self, scalar_bundle):
        b = scalar_bundle
        p = b.jet(0, (1,))
        assert d_x(b) * d_x(b, p) == d_x(b).compose(d_x(b, p))
        assert d_x(b, p) * 3 == d_x(b, 3 * p)
        assert d_x(b, p) * Fraction(1, 2) == d_x(b, Fraction(1, 2) * p)
        for other in (0.5, "D_x", True):
            # The zero operator has no coefficient to scale; its factor is
            # refused by type all the same.
            for op in (d_x(b), identity(b), CDiffOperator(b, 1, 1)):
                with pytest.raises(TypeError):
                    op * other
                with pytest.raises(TypeError):
                    op.scale(other)

    def test_vector_negation(self, plane_bundle):
        g = random_vector_operator(plane_bundle, 9)
        assert -g == VectorOperator(-c for c in g.components)
        assert (g + -g).is_zero() and not g.is_zero()


class TestConstructor:
    def test_shape_at_least_one_by_one(self, scalar_bundle):
        with pytest.raises(ValueError, match="^operator shape must be at least 1x1$"):
            CDiffOperator(scalar_bundle, 0, 1)

    def test_entry_outside_the_shape(self, scalar_bundle):
        with pytest.raises(ValueError, match=r"^entry \(0,1\) outside shape 1x1$"):
            CDiffOperator(scalar_bundle, 1, 1, {(0, 1): {(1,): 1}})

    @pytest.mark.parametrize("shape", [(0, 0), (-1, -1), (0, 1), (1, 0)])
    def test_zero_shape_at_least_one_by_one(self, scalar_bundle, shape):
        with pytest.raises(ValueError, match="^operator shape must be at least 1x1$"):
            CDiffOperator(scalar_bundle, *shape)

    def test_multi_index_of_the_wrong_length(self, scalar_bundle):
        with pytest.raises(ValueError, match="has wrong length$"):
            CDiffOperator(scalar_bundle, 1, 1, {(0, 0): {(1, 0): 1}})

    def test_coefficient_over_another_signature(self, scalar_bundle, plane_bundle):
        with pytest.raises(SignatureMismatchError, match="^coefficient over a different signature$"):
            CDiffOperator(scalar_bundle, 1, 1, {(0, 0): {(1,): plane_bundle.one()}})

    def test_number_is_a_constant_coefficient(self, scalar_bundle):
        b = scalar_bundle
        assert CDiffOperator(b, 1, 1, {(0, 0): {(1,): 3}}) == d_x(b, b.const(3))
        assert CDiffOperator(b, 1, 1, {(0, 0): {(1,): Fraction(2, 3)}}) == d_x(b, b.const(Fraction(2, 3)))
        assert CDiffOperator(b, 1, 1, {(0, 0): {(1,): 0}}).is_zero()

    def test_duplicate_keys_that_cancel_drop_their_cell(self, plane_bundle):
        u = plane_bundle.fiber_var(0)
        op = CDiffOperator(plane_bundle, 2, 2, {(0, 1): {range(2): u, (0, 1): -u}, (1, 0): {(1, 0): u}})
        assert op.entry(0, 1) == {} and (0, 1) not in op._entries
        assert CDiffOperator(plane_bundle, 1, 1, {(0, 0): {range(2): u, (0, 1): -u}}).is_zero()

    def test_from_json_shape_of_three_ints(self, scalar_bundle):
        data = {"shape": [1, 1, 1], "signature": scalar_bundle.to_json()}
        with pytest.raises(ValueError, match=r"^field 'shape' must be a list of two ints, got \[1, 1, 1\]$"):
            CDiffOperator.from_json(data)


class TestAlgebraOperandErrors:
    @pytest.mark.parametrize("op", ["add", "commutator"])
    def test_same_shape_operations(self, op, scalar_bundle, plane_bundle):
        call = {"add": lambda a, c: a + c, "commutator": lambda a, c: a.commutator(c)}[op]
        a = d_x(scalar_bundle)
        with pytest.raises(TypeError, match="^other must be a CDiffOperator, got int$"):
            call(a, 1)
        with pytest.raises(SignatureMismatchError, match="^operators carry different signatures$"):
            call(a, CDiffOperator(plane_bundle, 1, 1, {(0, 0): {(1, 0): 1}}))
        with pytest.raises(ShapeMismatchError, match="^shape mismatch: 1x1 vs 2x2$"):
            call(CDiffOperator(scalar_bundle, 1, 1), CDiffOperator(scalar_bundle, 2, 2))

    def test_compose(self, scalar_bundle, plane_bundle):
        a = d_x(scalar_bundle)
        with pytest.raises(TypeError, match="^other must be a CDiffOperator, got VectorOperator$"):
            a.compose(VectorOperator([scalar_bundle.one()]))
        with pytest.raises(SignatureMismatchError, match="^operators carry different signatures$"):
            a.compose(CDiffOperator(plane_bundle, 1, 1, {(0, 0): {(1, 0): 1}}))
        with pytest.raises(ShapeMismatchError, match="^cannot compose 1x2 with 1x1$"):
            CDiffOperator(scalar_bundle, 1, 2).compose(a)


class TestCanonicalEquality:
    def test_duplicate_multi_index_keys_add(self, plane_bundle):
        # range(2) and (0, 1) are different keys but the same multi-index.
        u = plane_bundle.fiber_var(0)
        op = CDiffOperator(plane_bundle, 1, 1, {(0, 0): {range(2): u, (0, 1): 2 * u}})
        assert op.entry(0, 0) == {MultiIndex((0, 1)): 3 * u}

    def test_distinct_forms_are_separated_by_probes(self, scalar_bundle):
        # Operators with different coefficient maps must differ on some
        # monomial probe; this is the self-test of canonicalization.
        b = scalar_bundle
        for seed in range(20):
            x = random_cdiff(b, seed, 1, 1)
            y = random_cdiff(b, seed + 37, 1, 1)
            if x == y:
                continue
            max_coeff_order = 0
            for op in (x, y):
                for key in ((0, 0),):
                    for sigma, coeff in op.entry(*key).items():
                        max_coeff_order = max(max_coeff_order, coeff.jet_order)
            found = False
            for order in range(max_coeff_order + 2):
                probe = VectorOperator([b.jet(0, (order,))])
                if x.apply(probe) != y.apply(probe):
                    found = True
                    break
            assert found

    def test_json_roundtrip(self, plane_bundle):
        theta = random_cdiff(plane_bundle, 12, 2, 2)
        # A zero operator would round-trip whatever the reader does with entries.
        assert theta.to_json()["entries"]
        assert CDiffOperator.from_json(theta.to_json()) == theta
        assert CDiffOperator.from_json(theta.to_json(), plane_bundle) == theta

    @staticmethod
    def listed(bundle, terms) -> dict:
        """An operator document whose one cell, (1, 2), lists terms, (sigma, coefficient) pairs."""
        return {
            "shape": [1, 2],
            "signature": bundle.to_json(),
            "entries": [{"i": 1, "j": 2, "terms": [{"sigma": s, "coeff": c.to_json()} for s, c in terms]}],
        }

    def test_json_sigma_listed_twice_reads_as_the_sum(self, plane_bundle):
        u, v = plane_bundle.fiber_var(0), plane_bundle.fiber_var(1)
        doc = self.listed(plane_bundle, [([1, 0], u), ([0, 1], v), ([1, 0], 2 * u - v)])
        op = CDiffOperator.from_json(doc)
        assert op.entry(0, 1) == {MultiIndex((1, 0)): 3 * u - v, MultiIndex((0, 1)): v}
        assert json.dumps(CDiffOperator.from_json(op.to_json()).to_json()) == json.dumps(op.to_json())

    def test_json_entries_that_cancel_leave_no_cell(self, plane_bundle):
        u = plane_bundle.fiber_var(0)
        doc = self.listed(plane_bundle, [([1, 0], u * u), ([1, 0], -(u * u))])
        op = CDiffOperator.from_json(doc)
        assert op.is_zero() and op._entries == {}
        assert op.to_json()["entries"] == []
        # The same cell listed in two records adds too.
        doc["entries"].append({"i": 1, "j": 2, "terms": [{"sigma": [0, 2], "coeff": u.to_json()}]})
        assert CDiffOperator.from_json(doc).entry(0, 1) == {MultiIndex((0, 2)): u}

    def test_json_round_trip_is_byte_for_byte(self, plane_bundle):
        for seed in range(5):
            theta = random_cdiff(plane_bundle, seed, 2, 2)
            text = json.dumps(theta.to_json())
            assert json.dumps(CDiffOperator.from_json(json.loads(text)).to_json()) == text


class TestDerivativeCache:
    ORDER = 3

    def test_without_a_plan_every_derivative_is_kept(self):
        bundle = Bundle(("x", "y"), ("u", "v"))
        f = random_vector_operator(bundle, 42)
        # Each pair asked for twice, in shuffled order.
        requests = [(j, sigma) for j in range(f.rank) for sigma in indices_up_to(2, self.ORDER)] * 2
        random.Random(2).shuffle(requests)
        cache = DerivativeCache(f)
        for j, sigma in requests:
            assert cache.get(j, sigma) == f[j].total_derivative_multi(sigma)
        assert [len(memo) for memo in cache._memos] == [len(indices_up_to(2, self.ORDER))] * 2

    def test_parent_is_memoized_and_bounded(self):
        def parent(sigma):
            i = next(k for k, v in enumerate(sigma) if v)
            return sigma[:i] + (sigma[i] - 1,) + sigma[i + 1 :], i

        for n in (1, 2, 3):
            for sigma in indices_up_to(n, 6):
                if sigma.order:
                    got = _parent(sigma)
                    assert got == parent(sigma) and type(got[0]) is MultiIndex
                    assert _parent(sigma) is got
        assert _parent.cache_info().maxsize is not None

    def test_leibniz_table_is_the_expansion_and_bounded(self):
        # Every sigma, tau of order <= 4 with n <= 3: for each kappa <= sigma,
        # the key sigma - kappa + tau and the product of binomials C(sigma_i, kappa_i).
        for n in (1, 2, 3):
            indices = indices_up_to(n, 4)
            for sigma, tau in itertools.product(indices, indices):
                want = [
                    (kappa, tuple(s - k + t for s, k, t in zip(sigma, kappa, tau)),
                     math.prod(map(math.comb, sigma, kappa)))
                    for kappa in itertools.product(*(range(s + 1) for s in sigma))
                ]
                got = _leibniz(sigma, tau)
                assert sorted(got) == sorted(want)
                assert all(type(kappa) is type(key) is MultiIndex for kappa, key, _ in got)
                assert _leibniz(sigma, tau) is got
        assert _leibniz.cache_info().maxsize is not None


class TestVectorOperatorErrors:
    def test_table(self, scalar_bundle, plane_bundle):
        f = VectorOperator([scalar_bundle.fiber_var(0)])
        cases = [
            (lambda: VectorOperator([]), ValueError, "a vector operator needs at least one component"),
            (lambda: VectorOperator([scalar_bundle.one(), plane_bundle.one()]), SignatureMismatchError,
             "components carry different signatures"),
            (lambda: f + 3, TypeError, "other must be a VectorOperator, got int"),
        ]
        for call, error, message in cases:
            with pytest.raises(error, match=f"^{message}$"):
                call()
