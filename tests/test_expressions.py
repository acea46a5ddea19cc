import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import (
    Bundle,
    CDiffOperator,
    EvaluationError,
    PolyExpr,
    SignatureMismatchError,
    VectorOperator,
    random_expr,
)
from jetcalc.expressions import BASE, JET, PARAM, JetCoordinate, _intern, _sample_pool
from jetcalc.dsl import parse
from jetcalc.identities import DEFAULT_COEFF_POOL, trial
from jetcalc.multiindex import MultiIndex

seeds = st.integers(min_value=0, max_value=2**20)


class TestRing:
    def test_additive_inverse(self, scalar_bundle):
        p = scalar_bundle.jet(0, (1,))
        assert (p * p + (-(p * p))).is_zero()

    def test_unit(self, scalar_bundle):
        b = scalar_bundle
        e = b.jet(0, (1,)) + b.param("c") * b.base_var(0)
        assert e * b.one() == e

    def test_collection(self, scalar_bundle):
        p = scalar_bundle.jet(0, (1,))
        assert (p * p).scale(2) == 2 * (p * p)
        assert 2 * (p * p) == p * p + p * p

    def test_int_coercion_and_pow(self, scalar_bundle):
        u = scalar_bundle.fiber_var(0)
        assert (u + 1) * (u - 1) == u**2 - 1
        assert (u + Fraction(1, 2)) * 2 == 2 * u + 1

    def test_number_minus_expression(self, scalar_bundle):
        u = scalar_bundle.fiber_var(0)
        assert 1 - u == -u + 1 == scalar_bundle.one() - u
        assert Fraction(1, 2) - u == scalar_bundle.const(Fraction(1, 2)) - u
        with pytest.raises(TypeError):
            0.5 - u

    def test_constructor_rejects_float_coefficients(self, scalar_bundle):
        mono = ((scalar_bundle.jet_coord(0, (0,)), 1),)
        assert PolyExpr(scalar_bundle, {mono: Fraction(2, 4)}).terms == {mono: Fraction(1, 2)}
        assert PolyExpr(scalar_bundle, {mono: Fraction(4, 2)}).terms == {mono: 2}
        with pytest.raises(TypeError):
            PolyExpr(scalar_bundle, {mono: 0.1})

    def test_signature_mixing_rejected(self, scalar_bundle, plane_bundle):
        with pytest.raises(SignatureMismatchError):
            scalar_bundle.fiber_var(0) + plane_bundle.fiber_var(0)

    def test_bundle_name_validation(self):
        with pytest.raises(ValueError):
            Bundle(("x",), ("u_t",))
        with pytest.raises(ValueError):
            Bundle(("x", "x"), ("u",))
        with pytest.raises(ValueError):
            Bundle((), ("u",))


class TestBundleRecord:
    def test_repr_and_the_error_that_embeds_it(self, scalar_bundle, plane_bundle):
        text = "Bundle(base=('x',), fiber=('u',), params=('c',))"
        assert repr(scalar_bundle) == text
        message = f"cannot combine values over {text} and Bundle(base=('x', 'y'), fiber=('u', 'v'), params=())"
        with pytest.raises(SignatureMismatchError, match=re.escape(message)):
            scalar_bundle.one() + plane_bundle.one()

    def test_equal_bundles_hash_equal(self, scalar_bundle):
        other = Bundle(["x"], ["u"], ["c"])
        assert other == scalar_bundle and hash(other) == hash(scalar_bundle)

    def test_frozen(self, scalar_bundle):
        with pytest.raises(AttributeError):
            scalar_bundle.base = ("y",)
        with pytest.raises(AttributeError):
            scalar_bundle.extra = 1

    def test_pickle_round_trip_revalidates(self, plane_bundle):
        assert pickle.loads(pickle.dumps(plane_bundle)) == plane_bundle
        # The same pickle with one fiber name changed to a base name.
        data = pickle.dumps(Bundle(("x", "y"), ("u", "q")))
        with pytest.raises(ValueError, match="duplicate names"):
            pickle.loads(data.replace(b"q", b"y"))

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError, match="bad variable name 1"):
            Bundle((1,), ("u",))

    def test_jet_coordinate_needs_one_entry_per_base_variable(self):
        # Fiber index 0 is in range, so only the length of sigma is wrong.
        bundle, v = Bundle(("x", "y"), ("u",)), JetCoordinate(JET, 0, MultiIndex((0,)))
        with pytest.raises(ValueError, match="does not belong"):
            bundle.coord_var(v)
        with pytest.raises(ValueError, match="does not belong"):
            PolyExpr(bundle, {((v, 1),): 1})


SIGNATURE = {"base": ["x"], "fiber": ["u"]}
BUNDLE = Bundle.from_json(SIGNATURE)
PLANE = Bundle(("x", "y"), ("u",))


def monomial(var: dict) -> dict:
    """A polynomial document of one monomial with coefficient 1 and one variable entry."""
    return {"monomials": [{"coeff": "1", "vars": [var]}]}


def cdiff(entry) -> dict:
    """A 1x1 operator document with one entry."""
    return {"signature": SIGNATURE, "shape": [1, 1], "entries": [entry]}


# Each wrong-shaped JSON document, and the field its error must name.
@pytest.mark.parametrize(
    "load, field",
    [
        (lambda: Bundle.from_json(5), "signature"),
        (lambda: Bundle.from_json({"base": "xy", "fiber": ["u"]}), "'base'"),
        (lambda: Bundle.from_json({"base": [1], "fiber": ["u"]}), "'base'"),
        (lambda: VectorOperator.from_json({"signature": 5, "components": []}), "signature"),
        (lambda: VectorOperator.from_json({"signature": SIGNATURE, "components": [7]}), "'monomials'"),
        (lambda: CDiffOperator.from_json({"signature": SIGNATURE, "shape": 3}), "'shape'"),
        (lambda: PolyExpr.from_json({"monomials": 5}, Bundle(("x",), ("u",))), "'monomials'"),
        (lambda: VectorOperator.from_json({"signature": SIGNATURE, "components": 5}), "'components'"),
        (lambda: PolyExpr.from_json({"monomials": [7]}, BUNDLE), "'monomials'"),
        (lambda: PolyExpr.from_json({"monomials": [{"coeff": "1", "vars": 5}]}, BUNDLE), "'vars'"),
        (lambda: PolyExpr.from_json(monomial({"var": 5, "pow": 1}), BUNDLE), "'var'"),
        (lambda: PolyExpr.from_json(monomial({"var": "x[1]"}), BUNDLE), "'pow'"),
        (lambda: PolyExpr.from_json({"monomials": [{"vars": []}]}, BUNDLE), "'coeff'"),
        (lambda: CDiffOperator.from_json(cdiff(5)), "'entries'"),
        (lambda: CDiffOperator.from_json(cdiff({"i": "1", "j": 1, "terms": []})), "'i'"),
        (lambda: CDiffOperator.from_json(cdiff({"i": 1, "j": 1, "terms": [{"sigma": 5}]})), "'sigma'"),
        (lambda: PolyExpr.from_json({"monomials": [{"coeff": "1/0"}]}, BUNDLE), "'coeff'"),
        (lambda: PolyExpr.from_json({"monomials": [{"coeff": "abc"}]}, BUNDLE), "'coeff'"),
        (lambda: PolyExpr.from_json(monomial({"var": "x[0]", "pow": 1}), BUNDLE), "'x[0]' is 0, out of range 1..1"),
        (lambda: PolyExpr.from_json(monomial({"var": "x[2]", "pow": 1}), BUNDLE), "'x[2]' is 2, out of range 1..1"),
        (lambda: PolyExpr.from_json(monomial({"var": "p[0]^(1)", "pow": 1}), BUNDLE), "'p[0]^(1)' is 0"),
        (lambda: CDiffOperator.from_json(cdiff({"i": 0, "j": 1, "terms": []})), "field 'i' is 0, out of range 1..1"),
        (lambda: CDiffOperator.from_json(cdiff({"i": 1, "j": 2, "terms": []})), "field 'j' is 2, out of range 1..1"),
        (lambda: PolyExpr.from_json(monomial({"var": "x[a]", "pow": 1}), PLANE), "'x[a]'"),
        (lambda: PolyExpr.from_json(monomial({"var": "p[1]^(a,0)", "pow": 1}), PLANE), "'p[1]^(a,0)'"),
        (lambda: PolyExpr.from_json(monomial({"var": "x[ 1]", "pow": 1}), PLANE), "'x[ 1]'"),
        (lambda: PolyExpr.from_json(monomial({"var": "x[+1]", "pow": 1}), PLANE), "'x[+1]'"),
        (lambda: PolyExpr.from_json(monomial({"var": "p[1]^( 1,0)", "pow": 1}), PLANE), "'p[1]^( 1,0)'"),
        (lambda: PolyExpr.from_json(monomial({"var": "p[1]^(1_0,0)", "pow": 1}), PLANE), "'p[1]^(1_0,0)'"),
        (lambda: PolyExpr.from_json(monomial({"var": "p[1]^(1)", "pow": 1}), PLANE), "'p[1]^(1)' has 1 multi-index"),
        (lambda: PolyExpr.from_json(monomial({"var": "p[1]^()", "pow": 1}), PLANE), "'p[1]^()' has 0 multi-index"),
    ],
    ids=["bundle-not-object", "base-string", "base-int-name", "signature-not-object",
         "component-not-object", "shape-not-list", "monomials-not-list", "components-not-list",
         "monomial-not-object", "vars-not-list", "var-not-string", "pow-missing",
         "coeff-missing", "entry-not-object", "i-string", "sigma-not-list",
         "coeff-zero-denominator", "coeff-not-rational", "base-index-0", "base-index-past-end",
         "fiber-index-0", "i-0", "j-past-end", "base-index-letter", "sigma-entry-letter",
         "base-index-space", "base-index-sign", "sigma-entry-space", "sigma-entry-underscore",
         "sigma-too-short", "sigma-empty"],
)
def test_json_of_the_wrong_shape_names_the_field(load, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        load()


class TestPartial:
    def test_power_rule(self, scalar_bundle):
        b = scalar_bundle
        p = b.jet(0, (1,))
        assert (p * p).partial(b.jet_coord(0, (1,))) == 2 * p

    def test_absent_variable(self, scalar_bundle):
        b = scalar_bundle
        p = b.jet(0, (1,))
        assert (p * p).partial(b.jet_coord(0, (2,))).is_zero()

    def test_leibniz_on_product(self, scalar_bundle):
        b = scalar_bundle
        u, p = b.fiber_var(0), b.jet(0, (1,))
        assert (u * p).partial(b.jet_coord(0, (0,))) == p


class TestTotalDerivative:
    def test_chain_rule(self, scalar_bundle):
        b = scalar_bundle
        p, p2 = b.jet(0, (1,)), b.jet(0, (2,))
        assert (p * p).total_derivative(0) == 2 * p * p2

    def test_shifts_fiber_coordinate(self, scalar_bundle):
        b = scalar_bundle
        assert b.fiber_var(0).total_derivative(0) == b.jet(0, (1,))

    def test_parameter_is_constant(self, scalar_bundle):
        b = scalar_bundle
        cx = b.param("c") * b.base_var(0)
        assert cx.total_derivative(0) == b.param("c")

    def test_multi_iteration(self, scalar_bundle):
        b = scalar_bundle
        assert b.fiber_var(0).total_derivative_multi((2,)) == b.jet(0, (2,))

    def test_multi_identity_case(self, scalar_bundle):
        b = scalar_bundle
        e = b.jet(0, (1,)) ** 2 + b.param("c")
        assert e.total_derivative_multi((0,)) == e

    def test_mixed_derivative(self, plane_bundle):
        b = plane_bundle
        assert b.fiber_var(0).total_derivative_multi((1, 1)) == b.jet(0, (1, 1))

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_total_derivatives_commute(self, seed):
        bundle = Bundle(("x", "y"), ("u", "v"))
        e = random_expr(bundle, seed, max_jet_order=2, max_degree=2)
        dxy = e.total_derivative(0).total_derivative(1)
        dyx = e.total_derivative(1).total_derivative(0)
        assert dxy == dyx

    @given(seed_a=seeds, seed_b=seeds)
    @settings(max_examples=30, deadline=None)
    def test_derivation_rule(self, seed_a, seed_b):
        bundle = Bundle(("x", "y"), ("u", "v"))
        a = random_expr(bundle, seed_a, max_jet_order=2, max_degree=2)
        b = random_expr(bundle, seed_b, max_jet_order=2, max_degree=2)
        for i in range(2):
            lhs = (a * b).total_derivative(i)
            rhs = a.total_derivative(i) * b + a * b.total_derivative(i)
            assert lhs == rhs

    def test_partial_total_single_step(self, plane_bundle):
        # Pushing one jet partial through one total derivative leaves exactly
        # the partial with the step removed, or commutes when it cannot drop.
        b = plane_bundle
        for seed in range(10):
            e = random_expr(b, seed, max_jet_order=2, max_degree=2)
            for zeta in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
                zeta = MultiIndex(zeta)
                for i in range(2):
                    v = b.jet_coord(0, zeta)
                    lhs = e.total_derivative(i).partial(v) - e.partial(v).total_derivative(i)
                    dropped = zeta.checked_sub(MultiIndex.zero(2).bump(i))
                    if dropped is None:
                        assert lhs.is_zero()
                    else:
                        assert lhs == e.partial(b.jet_coord(0, dropped))

    def test_jet_order_growth_bound(self, plane_bundle):
        for seed in range(10):
            e = random_expr(plane_bundle, seed, max_jet_order=2, max_degree=2)
            assert e.total_derivative(0).jet_order <= e.jet_order + 1


class TestEvaluate:
    def test_square(self, scalar_bundle):
        b = scalar_bundle
        p = b.jet(0, (1,))
        assert (p * p).evaluate({b.jet_coord(0, (1,)): 3}) == 9

    def test_zero_expression(self, scalar_bundle):
        assert scalar_bundle.zero().evaluate({}) == 0

    def test_affine(self, scalar_bundle):
        b = scalar_bundle
        e = b.jet(0, (1,)) + b.param("c") * b.base_var(0)
        point = {b.jet_coord(0, (1,)): 1, b.param_coord("c"): 2, b.base_coord(0): -1}
        assert e.evaluate(point) == -1

    def test_rejects_float_point(self, scalar_bundle):
        b = scalar_bundle
        u = b.jet_coord(0, (0,))
        assert b.fiber_var(0).evaluate({u: Fraction(1, 2)}) == Fraction(1, 2)
        with pytest.raises(TypeError):
            b.fiber_var(0).evaluate({u: 0.5})

    def test_unassigned_coordinate(self, scalar_bundle):
        b = scalar_bundle
        with pytest.raises(EvaluationError):
            (b.fiber_var(0) + 1).evaluate({})

    def test_ring_homomorphism(self, plane_bundle):
        b = plane_bundle
        rng = random.Random(5)
        for seed in range(10):
            e1 = random_expr(b, seed, max_jet_order=1, max_degree=2)
            e2 = random_expr(b, seed + 500, max_jet_order=1, max_degree=2)
            coords = e1.coordinates() | e2.coordinates()
            point = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for v in coords}
            assert (e1 * e2).evaluate(point) == e1.evaluate(point) * e2.evaluate(point)
            assert (e1 + e2).evaluate(point) == e1.evaluate(point) + e2.evaluate(point)


class TestRandomExpr:
    def test_deterministic(self, plane_bundle):
        a = random_expr(plane_bundle, 42)
        b = random_expr(plane_bundle, 42)
        assert a == b

    def test_default_coeff_pool(self, plane_bundle):
        drawn = [random_expr(plane_bundle, seed) for seed in range(30)]
        assert drawn == [random_expr(plane_bundle, seed, coeff_pool=(-2, -1, 1, 2)) for seed in range(30)]
        assert {c for e in drawn for c in e.terms.values()} >= {-2, -1, 1, 2}

    def test_default_max_degree(self, plane_bundle):
        drawn = [random_expr(plane_bundle, seed) for seed in range(30)]
        assert drawn == [random_expr(plane_bundle, seed, max_degree=2) for seed in range(30)]
        assert max(e.degree for e in drawn) == 2

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("params", [(), ("c",)])
    def test_memoized_pool_matches_a_fresh_build(self, n, r, params):
        # random_expr as it was before its coordinate pool was memoized.
        def fresh(bundle, seed, max_jet_order):
            rng = random.Random(seed)
            pool = [JetCoordinate(PARAM, k) for k in range(len(bundle.params))]
            pool += [JetCoordinate(BASE, i) for i in range(bundle.n)] + bundle.jet_coordinates_up_to(max_jet_order)
            ids = [_intern(v) for v in pool]
            acc = {}
            for _ in range(rng.randint(1, 4)):
                coeff = rng.choice(DEFAULT_COEFF_POOL)
                if coeff == 0:
                    continue
                key = tuple(sorted(rng.choice(ids) for _ in range(rng.randint(0, 3))))
                acc[key] = acc.get(key, 0) + coeff
            return PolyExpr._make(bundle, acc)

        bundle = Bundle(("x", "y")[:n], ("u", "v")[:r], params)
        for order in range(4):
            for seed in range(10):
                got = random_expr(bundle, seed, max_jet_order=order, max_degree=3, coeff_pool=DEFAULT_COEFF_POOL)
                assert list(got._terms.items()) == list(fresh(bundle, seed, order)._terms.items())
            assert _sample_pool(len(params), n, r, order) is _sample_pool(len(params), n, r, order)
        assert _sample_pool.cache_info().maxsize is not None

    def test_degenerate_degree_bound(self, scalar_bundle):
        e = random_expr(scalar_bundle, 3, max_jet_order=2, max_degree=0)
        assert e.is_constant()

    def test_bounds_respected(self, scalar_bundle):
        for seed in range(50):
            e = random_expr(scalar_bundle, seed, max_jet_order=2, max_degree=2)
            assert e.jet_order <= 2
            assert e.degree <= 2

    def test_rejects_float_pool(self, scalar_bundle):
        with pytest.raises(TypeError):
            random_expr(scalar_bundle, 0, coeff_pool=(1, 0.5))

    def test_rejects_bad_bounds(self, scalar_bundle):
        with pytest.raises(ValueError):
            random_expr(scalar_bundle, 0, max_degree=-1)
        with pytest.raises(ValueError):
            random_expr(scalar_bundle, 0, coeff_pool=())


class TestStructure:
    def test_jet_order(self, scalar_bundle):
        b = scalar_bundle
        assert b.param("c").jet_order == 0
        assert (b.jet(0, (2,)) * b.jet(0, (1,))).jet_order == 2

    def test_substitute(self, scalar_bundle):
        b = scalar_bundle
        u = b.fiber_var(0)
        x = b.base_var(0)
        e = u**2 + u + 1
        out = e.substitute({b.jet_coord(0, (0,)): x + 1})
        assert out == (x + 1) ** 2 + x + 2

    def test_json_roundtrip(self, plane_bundle):
        for seed in range(10):
            e = random_expr(plane_bundle, seed, max_jet_order=2, max_degree=3,
                            coeff_pool=(Fraction(1, 2), -2, 3))
            assert PolyExpr.from_json(e.to_json(), plane_bundle) == e

    def test_json_rejects_number_coefficients(self, scalar_bundle):
        doc = scalar_bundle.fiber_var(0).to_json()
        assert PolyExpr.from_json(doc, scalar_bundle) == scalar_bundle.fiber_var(0)
        doc["monomials"][0]["coeff"] = 0.5
        with pytest.raises(ValueError, match="^field 'coeff' must be a string, got 0.5$"):
            PolyExpr.from_json(doc, scalar_bundle)

    @pytest.mark.parametrize("power", [1.9, "2", True])
    def test_json_rejects_non_int_powers(self, scalar_bundle, power):
        doc = scalar_bundle.fiber_var(0).to_json()
        doc["monomials"][0]["vars"][0]["pow"] = power
        with pytest.raises(ValueError, match="monomial power must be a positive int"):
            PolyExpr.from_json(doc, scalar_bundle)

    def test_canonical_equality_vs_int(self, scalar_bundle):
        assert scalar_bundle.const(Fraction(4, 2)) == 2
        assert scalar_bundle.zero() == 0
        # A non-constant expression equals no number, not even its constant term.
        assert (scalar_bundle.fiber_var(0) + 1) != 1
        assert not (scalar_bundle.fiber_var(0) + 1) == 1

    def test_a_bool_is_no_coefficient(self, scalar_bundle):
        # True == 1 and False == 0 as ints, but an expression equals no bool.
        assert not scalar_bundle.one() == True  # noqa: E712
        assert not scalar_bundle.zero() == False  # noqa: E712
        assert scalar_bundle.one() != True  # noqa: E712


class TestTrustedConstructor:
    # _make's keys are not checked; only the term table is measured here.
    def test_all_zero_terms_leave_an_empty_table(self, scalar_bundle):
        e = PolyExpr._make(scalar_bundle, {(i,): 0 for i in range(10_000)})
        assert e.is_zero()
        assert sys.getsizeof(e._terms) == sys.getsizeof({})

    def test_zeros_are_pruned(self, scalar_bundle):
        terms = {(i,): i % 3 for i in range(300)}
        e = PolyExpr._make(scalar_bundle, terms)
        assert 0 not in e._terms.values()
        assert e._terms == {m: c for m, c in terms.items() if c}

    def test_terms_without_zeros_are_adopted(self, scalar_bundle):
        terms = {(i,): i + 1 for i in range(300)}
        assert PolyExpr._make(scalar_bundle, terms)._terms is terms

    def test_cancelled_antihom_defects_hold_empty_tables(self, fixtures_dir):
        session = parse((fixtures_dir / "deep.jet").read_text())
        f, g = session.operators["F"], session.operators["G"]
        res = trial("antihom", {"f": f, "g": g, "probe_order": 8})[0]
        assert res.holds and len(res.value.components) == 90
        assert {sys.getsizeof(c._terms) for c in res.value.components} == {sys.getsizeof({})}


# -- error branches, one row per raise -------------------------------------------

_B1 = Bundle(("x",), ("u",))
_B2 = Bundle(("x", "y"), ("u", "v"), ("c",))
EXPRESSION_ERRORS = {
    "no fiber": (lambda: Bundle(("x",), ()), ValueError, "need at least one fiber variable"),
    "base index": (lambda: _B1.base_coord(5), ValueError, "base index 5 out of range"),
    "fiber index": (lambda: _B1.jet_coord(5, (0,)), ValueError, "fiber index 5 out of range"),
    "parameter": (lambda: _B1.param_coord("q"), ValueError, "unknown parameter 'q'"),
    "variable type": (lambda: PolyExpr(_B1, {(("u", 1),): 1}), TypeError,
                      "monomial variable must be a JetCoordinate, got str"),
    "kind 7": (lambda: PolyExpr(_B1, {((JetCoordinate(7, 0), 1),): 1}), ValueError,
               f"coordinate {JetCoordinate(7, 0)} does not belong to signature {_B1}"),
    "negative power": (lambda: _B1.fiber_var(0) ** -1, ValueError, "exponent must be a non-negative integer"),
    "derivative direction": (lambda: _B1.fiber_var(0).total_derivative(3), ValueError, "base index 3 out of range"),
    "substitute": (lambda: _B1.fiber_var(0).substitute({_B1.jet_coord(0, (0,)): _B2.fiber_var(0)}),
                   SignatureMismatchError, "substitution value over a different signature"),
}


@pytest.mark.parametrize("call, error, message", EXPRESSION_ERRORS.values(), ids=EXPRESSION_ERRORS)
def test_expression_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
