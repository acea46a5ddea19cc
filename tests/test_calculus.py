import random
import re

import pytest

from jetcalc import (
    Bundle,
    CDiffOperator,
    PolyExpr,
    SignatureMismatchError,
    VectorOperator,
    evolutionary_apply,
    hessian_form,
    hessian_operator,
    jacobi_bracket,
    jacobi_bracket_coord,
    linearize,
    random_expr,
    random_vector_operator,
    substitute_section,
)
from jetcalc import calculus
from jetcalc.multiindex import MultiIndex
from jetcalc.operators import DerivativeCache
from jetcalc.vectorops import RankMismatchError


def triple(bundle, seed):
    return (
        random_vector_operator(bundle, seed),
        random_vector_operator(bundle, seed + 1000),
        random_vector_operator(bundle, seed + 2000),
    )


class TestLinearize:
    def test_square_operator(self, intro_pair):
        b, f, _ = intro_pair
        p = b.jet(0, (1,))
        assert linearize(f) == CDiffOperator(b, 1, 1, {(0, 0): {(1,): 2 * p}})

    def test_affine_operator(self, intro_pair):
        b, _, g = intro_pair
        assert linearize(g) == CDiffOperator(b, 1, 1, {(0, 0): {(1,): 1}})

    def test_linear_operator_reproduced(self, scalar_bundle):
        b = scalar_bundle
        f = VectorOperator([b.jet(0, (2,)) + b.fiber_var(0)])
        expected = CDiffOperator(b, 1, 1, {(0, 0): {(2,): b.one(), (0,): b.one()}})
        assert linearize(f) == expected
        # for linear f with no free term, the linearization acts as f itself
        for seed in range(5):
            g = random_vector_operator(b, seed)
            direct = VectorOperator(
                [f[0].substitute({b.jet_coord(0, (k,)): g[0].total_derivative_multi((k,)) for k in (0, 1, 2)})]
            )
            assert linearize(f).apply(g) == direct

    def test_linearity_in_operator(self, plane_bundle):
        for seed in range(5):
            f = random_vector_operator(plane_bundle, seed)
            g = random_vector_operator(plane_bundle, seed + 77)
            left = linearize(3 * f + (-2) * g)
            right = 3 * linearize(f) + (-2) * linearize(g)
            assert left == right


class TestEvolutionary:
    def test_generating_section(self, plane_bundle):
        g = random_vector_operator(plane_bundle, 21)
        for j in range(2):
            assert evolutionary_apply(g, plane_bundle.fiber_var(j)) == g[j]

    def test_vertical(self, plane_bundle):
        g = random_vector_operator(plane_bundle, 22)
        for i in range(2):
            assert evolutionary_apply(g, plane_bundle.base_var(i)).is_zero()

    def test_coordinate_formula_matches_linearization(self, intro_pair):
        b, f, g = intro_pair
        assert evolutionary_apply(g, f[0]) == linearize(f).apply(g)[0]
        p, p2, c = b.jet(0, (1,)), b.jet(0, (2,)), b.param("c")
        assert evolutionary_apply(g, f[0]) == 2 * p * (p2 + c)

    def test_is_derivation(self, plane_bundle):
        for seed in range(10):
            g = random_vector_operator(plane_bundle, seed)
            e1 = random_expr(plane_bundle, seed + 11)
            e2 = random_expr(plane_bundle, seed + 12)
            lhs = evolutionary_apply(g, e1 * e2)
            rhs = evolutionary_apply(g, e1) * e2 + e1 * evolutionary_apply(g, e2)
            assert lhs == rhs

    def test_commutes_with_total_derivatives(self, plane_bundle):
        for seed in range(5):
            g = random_vector_operator(plane_bundle, seed)
            e = random_expr(plane_bundle, seed + 31)
            for i in range(2):
                assert evolutionary_apply(g, e.total_derivative(i)) == evolutionary_apply(
                    g, e
                ).total_derivative(i)

    @pytest.mark.parametrize("base", [("x",), ("x", "y")])
    def test_coordinate_is_the_cached_derivative(self, base):
        # The value on p^j_sigma is D_sigma(g_j), built as a new sum: a caller
        # may write into it without touching any cache.
        b = Bundle(base, ("u", "v"))
        g = random_vector_operator(b, 23)
        cache = DerivativeCache(g)
        n = len(base)
        for sigma in [(0,) * n, (2,) + (0,) * (n - 1), (1,) * n]:
            for j in range(2):
                got = evolutionary_apply(g, b.jet(j, sigma))
                cached = cache.get(j, MultiIndex(sigma))
                assert got == cached == g[j].total_derivative_multi(sigma)
                assert got._terms is not cached._terms

    def test_other_targets_take_the_general_path(self):
        b = Bundle(("x", "y"), ("u", "v"), ("c",))
        g = random_vector_operator(b, 24)
        cache = DerivativeCache(g)
        p, q = b.jet(0, (1, 0)), b.jet(1, (0, 1))
        dp, dq = cache.get(0, MultiIndex((1, 0))), cache.get(1, MultiIndex((0, 1)))
        assert dp == g[0].total_derivative(0) and dq == g[1].total_derivative(1)
        cases = {
            # p + 1 has the same single jet partial as p.
            "p + 1": (p + 1, dp),
            "2*p": (2 * p, dp.scale(2)),
            "p*q": (p * q, dp * q + p * dq),
            "p**2": (p**2, 2 * p * dp),
            "x": (b.base_var(0), b.zero()),
            "c": (b.param("c"), b.zero()),
            "1": (b.one(), b.zero()),
        }
        for name, (target, want) in cases.items():
            got = evolutionary_apply(g, target)
            assert got == want, name
            assert got is not dp, name


class TestJacobiBracket:
    def test_running_example(self, intro_pair):
        b, f, g = intro_pair
        expected = VectorOperator([2 * b.param("c") * b.jet(0, (1,))])
        assert jacobi_bracket(f, g) == expected
        assert jacobi_bracket_coord(f, g) == expected

    def test_antisymmetry_on_diagonal(self, plane_bundle):
        f = random_vector_operator(plane_bundle, 5)
        assert jacobi_bracket(f, f).is_zero()

    def test_linear_homogeneity_case(self, scalar_bundle):
        b = scalar_bundle
        u = VectorOperator([b.fiber_var(0)])
        p = VectorOperator([b.jet(0, (1,))])
        assert jacobi_bracket_coord(u, p).is_zero()

    def test_oracle_equality(self, plane_bundle, scalar_bundle):
        for bundle in (scalar_bundle, plane_bundle):
            for seed in range(25):
                f = random_vector_operator(bundle, seed)
                g = random_vector_operator(bundle, seed + 333)
                assert jacobi_bracket(f, g) == jacobi_bracket_coord(f, g)

    def test_rank_mismatch(self, plane_bundle):
        f = random_vector_operator(plane_bundle, 1)
        bad = VectorOperator([plane_bundle.fiber_var(0)])
        with pytest.raises(RankMismatchError):
            jacobi_bracket(f, bad)
        with pytest.raises(RankMismatchError):
            jacobi_bracket(bad, bad)


class TestHessian:
    def test_form_single_term(self, intro_pair):
        b, f, g = intro_pair
        u = VectorOperator([b.fiber_var(0)])
        p, p2, c = b.jet(0, (1,)), b.jet(0, (2,)), b.param("c")
        assert hessian_form(f, g, u) == VectorOperator([2 * (p2 + c) * p])

    def test_form_vanishes_for_linear(self, scalar_bundle):
        b = scalar_bundle
        lin = VectorOperator([b.jet(0, (2,)) + 3 * b.fiber_var(0) - 1])
        for seed in range(5):
            g = random_vector_operator(b, seed)
            h = random_vector_operator(b, seed + 9)
            assert hessian_form(lin, g, h).is_zero()
            assert hessian_operator(lin, g).is_zero()

    def test_form_symmetry(self, plane_bundle):
        for seed in range(15):
            f, g, h = triple(plane_bundle, seed)
            assert hessian_form(f, g, h) == hessian_form(f, h, g)

    def test_operator_single_term(self, intro_pair):
        b, f, g = intro_pair
        p2, c = b.jet(0, (2,)), b.param("c")
        expected = CDiffOperator(b, 1, 1, {(0, 0): {(1,): 2 * (p2 + c)}})
        assert hessian_operator(f, g) == expected

    def test_operator_of_linear_argument(self, intro_pair):
        b, f, g = intro_pair
        assert hessian_operator(g, f).is_zero()

    def test_operator_reproduces_form(self, plane_bundle, scalar_bundle):
        for bundle in (scalar_bundle, plane_bundle):
            for seed in range(10):
                f, g, h = triple(bundle, seed)
                assert hessian_operator(f, g).apply(h) == hessian_form(f, g, h)


class TestAdjoint:
    def test_annihilates_itself(self, plane_bundle):
        f = random_vector_operator(plane_bundle, 2)
        assert jacobi_bracket(f, f).is_zero()

    def test_antisymmetric_running_example(self, intro_pair):
        b, f, g = intro_pair
        assert jacobi_bracket(g, f) == VectorOperator([-2 * b.param("c") * b.jet(0, (1,))])

    def test_equals_linearization_minus_evolutionary(self, plane_bundle):
        for seed in range(10):
            h = random_vector_operator(plane_bundle, seed)
            g = random_vector_operator(plane_bundle, seed + 19)
            direct = linearize(h).apply(g) - evolutionary_apply(h, g)
            assert jacobi_bracket(h, g) == direct


class TestGateaux:
    def section(self, bundle, rng, with_params=True):
        x = bundle.base_var(0)
        out = bundle.zero()
        for k in range(3):
            coeff = rng.randint(-2, 2)
            if coeff:
                out = out + coeff * x**k
        if with_params and rng.random() < 0.5:
            out = out + bundle.param("c") * x
        return out

    def test_directional_derivative_matches_linearization(self):
        # F(s + t*h), differentiated in t at 0, equals the linearization of F
        # applied to h and pulled back along s.
        small = Bundle(("x",), ("u",), ("c",))
        big = Bundle(("x",), ("u",), ("c", "t"))
        t = big.param("t")
        rng = random.Random(2024)
        checked = 0
        for seed in range(20):
            f_small = random_expr(small, seed, max_jet_order=2, max_degree=2)
            f = PolyExpr.from_json(f_small.to_json(), big)
            s = self.section(big, rng)
            h = self.section(big, rng)
            perturbed = [s + t * h]
            lhs = substitute_section(f, perturbed).partial(big.param_coord("t")).substitute(
                {big.param_coord("t"): big.zero()}
            )
            applied = linearize(VectorOperator([f])).apply(VectorOperator([h]))
            rhs = substitute_section(applied[0], [s])
            assert lhs == rhs
            checked += 1
        assert checked == 20

    def test_substitute_section_rejects_jets(self, scalar_bundle):
        b = scalar_bundle
        with pytest.raises(ValueError):
            substitute_section(b.fiber_var(0), [b.jet(0, (1,))])
        with pytest.raises(RankMismatchError):
            substitute_section(b.fiber_var(0), [])


class TestAntihomomorphism:
    def test_on_probes_and_random_expressions(self, plane_bundle):
        b = plane_bundle
        probes = [b.coord_var(v) for v in b.jet_coordinates_up_to(2)]
        for seed in range(8):
            f = random_vector_operator(b, seed)
            g = random_vector_operator(b, seed + 51)
            bracket = jacobi_bracket(f, g)
            for e in probes + [random_expr(b, seed + 77)]:
                defect = (
                    evolutionary_apply(f, evolutionary_apply(g, e))
                    - evolutionary_apply(g, evolutionary_apply(f, e))
                    + evolutionary_apply(bracket, e)
                )
                assert defect.is_zero()


class TestJacobiIdentity:
    def test_cyclic_sum_vanishes(self, plane_bundle, scalar_bundle):
        for bundle in (scalar_bundle, plane_bundle):
            for seed in range(8):
                f, g, h = triple(bundle, seed)
                total = (
                    jacobi_bracket(f, jacobi_bracket(g, h))
                    + jacobi_bracket(g, jacobi_bracket(h, f))
                    + jacobi_bracket(h, jacobi_bracket(f, g))
                )
                assert total.is_zero()


_B = Bundle(("x",), ("u",))
_E = _B.fiber_var(0) * _B.jet(0, (1,))
_G = VectorOperator([_E])
# Each call read .bundle, .rank or .kind off the int before it was checked.
WRONG_TYPES = {
    "vector component": (lambda: VectorOperator([1]), "component must be a PolyExpr, got int"),
    "linearize": (lambda: linearize(3), "f must be a VectorOperator, got int"),
    "apply": (lambda: linearize(_G).apply(3), "g must be a VectorOperator, got int"),
    "generator": (lambda: evolutionary_apply(3, _E), "g must be a VectorOperator, got int"),
    "target": (lambda: evolutionary_apply(_G, 3), "target must be a PolyExpr or VectorOperator, got int"),
    "section": (lambda: substitute_section(_E, [3]), "sections[0] must be a PolyExpr, got int"),
}


class TestOperandErrors:
    @pytest.mark.parametrize("call, message", WRONG_TYPES.values(), ids=WRONG_TYPES)
    def test_wrong_type_raises_type_error(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    def test_signature_errors(self, scalar_bundle):
        with pytest.raises(SignatureMismatchError, match="^target is over another signature than g$"):
            evolutionary_apply(_G, scalar_bundle.fiber_var(0))
        with pytest.raises(SignatureMismatchError, match="^section carries a different signature$"):
            substitute_section(_E, [scalar_bundle.base_var(0)])

    # A sum or difference of vector operators needs equal ranks, not the
    # fiber count: an antihom residual has one component per probe.
    @pytest.mark.parametrize("op", ["+", "-"])
    def test_vector_sum_names_its_operands(self, op, plane_bundle):
        combine = (lambda a, b: a + b) if op == "+" else (lambda a, b: a - b)
        pair = VectorOperator([plane_bundle.fiber_var(0), plane_bundle.fiber_var(1)])
        with pytest.raises(SignatureMismatchError, match="^other is over another signature than self$"):
            combine(pair, VectorOperator([_E, _E]))
        with pytest.raises(RankMismatchError, match="^other has rank 1, but self has rank 2$"):
            combine(pair, VectorOperator([plane_bundle.fiber_var(0)]))
        assert combine(pair, pair).rank == 2


def test_vector_target_derives_its_generator_once(plane_bundle, monkeypatch):
    built = []

    class Counting(DerivativeCache):
        def __init__(self, exprs):
            built.append(exprs)
            super().__init__(exprs)

    g = random_vector_operator(plane_bundle, 25, max_jet_order=3)
    target = random_vector_operator(plane_bundle, 26, max_jet_order=3)
    each = VectorOperator(evolutionary_apply(g, c) for c in target.components)
    monkeypatch.setattr(calculus, "DerivativeCache", Counting)
    assert evolutionary_apply(g, target) == each
    assert len(built) == 1 and built[0] is g
