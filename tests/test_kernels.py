"""The interned-id monomial kernels of jetcalc.expressions.

A test-only reference implements the ring and derivative kernels on the
decoded ``PolyExpr.terms`` view, with monomials as coordinate-sorted
(JetCoordinate, power) pairs; the id kernels must agree with it term by term.
Interning order is process-local, so the last tests rerun the CLI and the
suites in fresh processes whose intern tables were filled in shuffled orders.
"""

import hashlib
import inspect
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetcalc
from jetcalc import Bundle, PolyExpr, VectorOperator, calculus, identities, operators, random_expr
from jetcalc import RankMismatchError, ShapeMismatchError, SignatureMismatchError
from jetcalc.calculus import evolutionary_apply, random_vector_operator
from jetcalc.cli import main
from jetcalc.expressions import (
    _COORDS,
    _IDS,
    BASE,
    JET,
    MAX_DEGREE,
    PARAM,
    JetCoordinate,
    _intern,
    _mul_into,
    indices_up_to,
)
from jetcalc.multiindex import MultiIndex, binom_product, sub_indices
from jetcalc.operators import CDiffOperator

BUNDLE = Bundle(("x", "y"), ("u", "v"), ("c",))
POOL = (-2, -1, Fraction(1, 2), 1, 3)
seeds = st.integers(min_value=0, max_value=2**20)
ROOT = Path(__file__).resolve().parent.parent


# -- reference kernels on (JetCoordinate, power) pairs ---------------------------


def ref_clean(acc):
    return {m: c for m, c in acc.items() if c}


def ref_monomial(powers):
    return tuple(sorted((v, k) for v, k in powers.items() if k))


def ref_add(t1, t2, sign=1):
    acc = dict(t1)
    for m, c in t2.items():
        acc[m] = acc.get(m, 0) + sign * c
    return ref_clean(acc)


def ref_mul(t1, t2):
    acc = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            powers = dict(m1)
            for v, k in m2:
                powers[v] = powers.get(v, 0) + k
            m = ref_monomial(powers)
            acc[m] = acc.get(m, 0) + c1 * c2
    return ref_clean(acc)


def ref_partial(t, v):
    acc = {}
    for mono, c in t.items():
        powers = dict(mono)
        k = powers.get(v, 0)
        if k:
            powers[v] = k - 1
            m = ref_monomial(powers)
            acc[m] = acc.get(m, 0) + k * c
    return ref_clean(acc)


def ref_total_derivative(t, i):
    acc = {}
    for mono, c in t.items():
        for v, k in mono:
            if v.kind == PARAM or (v.kind == BASE and v.index != i):
                continue
            powers = dict(mono)
            powers[v] = k - 1
            if v.kind == JET:
                w = JetCoordinate(JET, v.index, v.sigma.bump(i))
                powers[w] = powers.get(w, 0) + 1
            m = ref_monomial(powers)
            acc[m] = acc.get(m, 0) + k * c
    return ref_clean(acc)


def draw(seed, bundle=BUNDLE, order=2):
    return random_expr(bundle, seed, max_jet_order=order, max_degree=3, coeff_pool=POOL, max_terms=6)


class TestDifferentialOracle:
    @given(seed_a=seeds, seed_b=seeds)
    @settings(max_examples=60, deadline=None)
    def test_ring_kernels(self, seed_a, seed_b):
        a, b = draw(seed_a), draw(seed_b)
        assert (a + b).terms == ref_add(a.terms, b.terms)
        assert (a - b).terms == ref_add(a.terms, b.terms, -1)
        assert (a * b).terms == ref_mul(a.terms, b.terms)
        assert (a * b).degree == max((sum(k for _, k in m) for m in (a * b).terms), default=0)

    @given(seed_a=seeds, seed_b=seeds, k=st.sampled_from((-1, 1, 3)))
    @settings(max_examples=40, deadline=None)
    def test_mul_into(self, seed_a, seed_b, k):
        a, b = draw(seed_a), draw(seed_b)
        acc = {}
        _mul_into(acc, a._terms, b._terms, k)
        _mul_into(acc, b._terms, b._terms)
        expected = ref_add({m: k * c for m, c in ref_mul(a.terms, b.terms).items()}, ref_mul(b.terms, b.terms))
        assert PolyExpr._make(BUNDLE, acc).terms == expected

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_derivative_kernels(self, seed):
        e = draw(seed)
        for i in range(BUNDLE.n):
            assert e.total_derivative(i).terms == ref_total_derivative(e.terms, i)
        for v in [BUNDLE.param_coord("c"), BUNDLE.base_coord(1)] + BUNDLE.jet_coordinates_up_to(3):
            assert e.partial(v).terms == ref_partial(e.terms, v)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_iterated_total_derivative(self, seed):
        # The D_sigma chain that DerivativeCache also reads, against repeated
        # reference total derivatives on the decoded view.
        e = draw(seed)
        for sigma in indices_up_to(BUNDLE.n, 3):
            assert e.total_derivative_multi(sigma).terms == ref_derivative(e.terms, sigma)


U, V, UX, UY = (BUNDLE.jet(j, s) for j, s in ((0, (0, 0)), (1, (0, 0)), (0, (1, 0)), (0, (0, 1))))
X, C = BUNDLE.base_var(0), BUNDLE.param("c")
SMALL = 3 + U * UX  # two terms, one of them constant
SMALL_NO_CONST = U * UX - V
LARGE = U**2 - Fraction(1, 2) * V * C + X * UY + UX**3
LARGE_CONST = LARGE + 5


class TestKernels:
    @pytest.mark.parametrize(
        "a, b",
        [
            (SMALL, LARGE),  # |a| < |b|, constant in the outer operand
            (LARGE, SMALL),  # |a| > |b|, constant in the outer operand
            (SMALL, SMALL_NO_CONST),  # |a| = |b|
            (SMALL_NO_CONST, LARGE_CONST),  # constant in the inner operand
            (LARGE_CONST, SMALL),  # constants on both sides
            (LARGE_CONST, LARGE),  # |a| > |b|, constant in the inner operand
        ],
    )
    @pytest.mark.parametrize("k", [1, -1, 3, Fraction(-2, 3)])
    def test_mul_into_loop_orders(self, a, b, k):
        before = (a.terms, b.terms)
        # A nonempty accumulator; for k = 1 it cancels the product exactly.
        start = {m: -c for m, c in (a * b)._terms.items()} if k == 1 else dict(V._terms)
        acc = dict(start)
        _mul_into(acc, a._terms, b._terms, k)
        expected = ref_add(
            PolyExpr._make(BUNDLE, dict(start)).terms,
            {m: k * c for m, c in ref_mul(a.terms, b.terms).items()},
        )
        assert PolyExpr._make(BUNDLE, acc).terms == expected
        assert (a.terms, b.terms) == before

    def test_total_derivative_on_powers(self):
        e = U**3 * UX**2 * X**2 * C - 2 * V**2 * U + Fraction(3, 4) * UY**4 * X
        for i in range(BUNDLE.n):
            assert e.total_derivative(i).terms == ref_total_derivative(e.terms, i)
        assert (U**3).total_derivative(0) == 3 * U**2 * UX
        assert (X**2 * UX**2).total_derivative(0) == 2 * X * UX**2 + 2 * X**2 * UX * BUNDLE.jet(0, (2, 0))

    @given(seed_a=seeds, seed_b=seeds)
    @settings(max_examples=40, deadline=None)
    def test_jet_partials_in_one_pass(self, seed_a, seed_b):
        e = draw(seed_a) * draw(seed_b) + draw(seed_a + 1) ** 2
        partials = e._jet_partials()
        assert set(partials) == e.jet_coordinates()
        for v in BUNDLE.jet_coordinates_up_to(4):
            assert partials.get(v, BUNDLE.zero()) == e.partial(v)
            assert partials.get(v, BUNDLE.zero()).terms == ref_partial(e.terms, v)

    def test_fused_antihom_defect(self, monkeypatch):
        # With the bracket doubled the defect is no longer zero; the one
        # accumulator must still equal the public expression.
        f = random_vector_operator(BUNDLE, 3, max_jet_order=2, max_degree=3, coeff_pool=POOL)
        g = random_vector_operator(BUNDLE, 4, max_jet_order=2, max_degree=3, coeff_pool=POOL)
        monkeypatch.setattr(identities, "jacobi_bracket", lambda f, g, chains: calculus.jacobi_bracket(f, g).scale(2))
        res = identities.check_evolutionary_antihomomorphism(f, g, 2)
        twice = calculus.jacobi_bracket(f, g).scale(2)
        expected = [
            evolutionary_apply(f, evolutionary_apply(g, e))
            - evolutionary_apply(g, evolutionary_apply(f, e))
            + evolutionary_apply(twice, e)
            for e in map(BUNDLE.coord_var, BUNDLE.jet_coordinates_up_to(2))
        ]
        assert res.value == VectorOperator(expected)
        assert [d.terms for d in res.value.components] == [d.terms for d in expected]
        assert not res.holds

    def test_coordinates_suffice(self, monkeypatch):
        # The defect E_{f,g} + [E_f, E_g] is a derivation, so on any probe e
        # it is the sum over the jet coordinates v of de/dv times its value on
        # v: the check's coordinate defects determine it on every expression.
        # A wrong bracket makes those defects nonzero.
        f, g = OPS["f"], OPS["g"]
        wrong = calculus.jacobi_bracket(f, g).scale(2)
        monkeypatch.setattr(identities, "jacobi_bracket", lambda f, g, chains: wrong)
        res = identities.check_evolutionary_antihomomorphism(f, g, 2)
        defects = dict(zip(BUNDLE.jet_coordinates_up_to(2), res.value.components))
        probes = [U * UX**2, X * C + UY] + [draw(seed) for seed in range(8)] + [draw(8) * draw(9)]
        nonzero = 0
        for e in probes:
            direct = (evolutionary_apply(wrong, e) + evolutionary_apply(f, evolutionary_apply(g, e))
                      - evolutionary_apply(g, evolutionary_apply(f, e)))
            summed = BUNDLE.zero()
            for v in e.jet_coordinates():
                summed = summed + e.partial(v) * defects[v]
            assert direct == summed
            nonzero += bool(direct)
        assert nonzero == sum(bool(e.jet_coordinates()) for e in probes) >= 8


def ref_derivative(t, sigma):
    """D_sigma of a decoded term dict, by repeated reference total derivatives."""
    for i, reps in enumerate(sigma):
        for _ in range(reps):
            t = ref_total_derivative(t, i)
    return t


def ref_evolutionary(g, t):
    """Sum over the jet coordinates v = p^j_sigma of t of D_sigma(g_j) * dt/dv,
    all on decoded term dicts."""
    acc = {}
    for v in {v for mono in t for v, _ in mono if v.kind == JET}:
        acc = ref_add(acc, ref_mul(ref_derivative(g[v.index].terms, v.sigma), ref_partial(t, v)))
    return acc


class CountingCache(operators.DerivativeCache):
    """A DerivativeCache that records each request."""

    def __init__(self, exprs):
        super().__init__(exprs)
        self.requests = []

    def get(self, j, sigma):
        self.requests.append((j, sigma))
        return super().get(j, sigma)


RANDOM_G = random_vector_operator(BUNDLE, 27, coeff_pool=POOL)
# A generator with D_y(g_0) = 0 and D_x(g_1) = 0.
JET_FREE_G = VectorOperator([X, C])
EDGE_TARGETS = [BUNDLE.const(Fraction(5, 2)), X * C, U**3 * UX**2, UY * V - X * BUNDLE.jet(1, (1, 0)) + U]


class TestEvolutionaryKernel:
    def check(self, g, e, k, start):
        cache = CountingCache(g)
        acc = dict(start._terms)
        calculus._evolutionary_into(acc, e, cache, k)
        expected = ref_add(start.terms, {m: k * c for m, c in ref_evolutionary(g, e.terms).items()})
        assert PolyExpr._make(BUNDLE, acc).terms == expected
        # One request per distinct jet coordinate of the target.
        assert sorted(cache.requests) == sorted((v.index, v.sigma) for v in e.jet_coordinates())

    @given(seed_g=seeds, seed_e=seeds, seed_s=seeds, k=st.sampled_from((1, -1, 3, Fraction(-2, 3))))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference(self, seed_g, seed_e, seed_s, k):
        g = random_vector_operator(BUNDLE, seed_g, max_jet_order=2, max_degree=2, coeff_pool=POOL)
        self.check(g, draw(seed_e) * draw(seed_e + 1), k, draw(seed_s) * C + 7)

    @pytest.mark.parametrize("e", EDGE_TARGETS, ids=["constant", "jet-free", "runs", "vanishing-derivatives"])
    @pytest.mark.parametrize("g", [RANDOM_G, JET_FREE_G], ids=["random", "jet-free"])
    @pytest.mark.parametrize("k", [1, -1, 3, Fraction(-2, 3)])
    def test_edge_targets(self, e, g, k):
        self.check(g, e, k, LARGE_CONST)


# -- fused defect sums -------------------------------------------------------------

# Seeds whose linearizations have three or four nonzero cells, so that one
# dropped cell (drop_one_cell below) leaves each of them nonzero.
OPS = {
    name: random_vector_operator(BUNDLE, seed, max_jet_order=2, max_degree=2, coeff_pool=POOL, max_terms=5)
    for name, seed in (("f", 24), ("g", 27), ("h", 23), ("start", 14))
}


def bracket(a, b):
    """The bracket as a difference of two applied linearizations, through
    calculus.linearize as bound at call time."""
    return calculus.linearize(a).apply(b) - calculus.linearize(b).apply(a)


# Each fused kernel, its public wrapper, and the same value through other
# public calls.
INTO_KERNELS = {
    "apply": (
        lambda accs, f, g, h, k: calculus.linearize(f)._apply_into(accs, g, k),
        lambda f, g, h: calculus.linearize(f).apply(g),
        lambda f, g, h: evolutionary_apply(g, f),  # l_f(g) = E_g(f)
    ),
    "bracket": (
        lambda accs, f, g, h, k: calculus._bracket_into(accs, f, g, k),
        lambda f, g, h: calculus.jacobi_bracket(f, g),
        lambda f, g, h: bracket(f, g),
    ),
    "bracket-coord": (
        lambda accs, f, g, h, k: calculus._bracket_coord_into(accs, f, g, k),
        lambda f, g, h: calculus.jacobi_bracket_coord(f, g),
        lambda f, g, h: bracket(f, g),
    ),
    "hessian": (
        lambda accs, f, g, h, k: calculus._hessian_into(accs, f, g, h, k),
        lambda f, g, h: calculus.hessian_form(f, g, h),
        lambda f, g, h: calculus.hessian_operator(f, g).apply(h),
    ),
}


def drop_one_cell(monkeypatch):
    """Plant a defect: linearize loses its last nonzero cell, in every module
    that calls it."""
    real = calculus.linearize

    def linearize(f):
        op = real(f)
        entries = dict(op._entries)
        if entries:
            del entries[max(entries)]
        return CDiffOperator._make(op.bundle, op.rows, op.cols, entries)

    monkeypatch.setattr(calculus, "linearize", linearize)
    monkeypatch.setattr(identities, "linearize", linearize)


def extra_product_term(monkeypatch):
    """Plant a defect: a PolyExpr product a * b also keeps a, which makes the
    Hessian kernel's second * D(g) asymmetric in g and h."""
    real = PolyExpr.__mul__
    monkeypatch.setattr(PolyExpr, "__mul__", lambda a, b: real(a, b) + a)


# For each fused check: the planted defect and the defect as it was computed
# before the sum was fused, written with public calls and VectorOperator + / -.
COMPOSED = {
    "hess-sym": (
        identities.check_hessian_symmetry, ("f", "g", "h"), extra_product_term,
        lambda f, g, h: calculus.hessian_form(f, g, h) - calculus.hessian_form(f, h, g),
    ),
    "prop2": (
        identities.check_linearization_anomaly, ("f", "g", "h"), drop_one_cell,
        lambda f, g, h: (
            calculus.linearize(f).commutator(calculus.linearize(g)) - calculus.linearize(bracket(f, g))
        ).apply(h) - (calculus.hessian_form(g, f, h) - calculus.hessian_form(f, g, h)),
    ),
    "prop3": (
        identities.check_bracket_leibniz, ("f", "g", "h"), drop_one_cell,
        lambda f, g, h: bracket(f, calculus.linearize(g).apply(h))
        - calculus.linearize(bracket(f, g)).apply(h)
        - calculus.linearize(g).apply(bracket(f, h))
        + calculus.hessian_form(f, g, h),
    ),
    "jacobi": (
        identities.check_jacobi_identity, ("f", "g", "h"), drop_one_cell,
        lambda f, g, h: bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, bracket(f, g)),
    ),
    "mu-lemma": (
        identities.check_multiplier_identity, ("g", "h", "f"), drop_one_cell,
        lambda g, h, mu: calculus.linearize(bracket(mu, h)).apply(g)
        + bracket(h, calculus.linearize(mu).apply(g))
        + calculus.hessian_form(h, mu, g)
        + calculus.linearize(mu).apply(bracket(g, h)),
    ),
    "bracket-oracle": (
        identities.check_bracket_oracle, ("f", "g"), drop_one_cell,
        lambda f, g: bracket(f, g) - calculus.jacobi_bracket_coord(f, g),
    ),
}


class TestFusedSums:
    @pytest.mark.parametrize("name", sorted(INTO_KERNELS))
    @pytest.mark.parametrize("k", [1, -1, 3])
    def test_into_adds_k_times_the_wrapper(self, name, k):
        into, wrapper, composed = INTO_KERNELS[name]
        f, g, h, start = (OPS[n] for n in ("f", "g", "h", "start"))
        value = wrapper(f, g, h)
        assert not value.is_zero() and not start.is_zero()
        assert value == composed(f, g, h)
        accs = [dict(c._terms) for c in start.components]
        into(accs, f, g, h, k)
        assert VectorOperator._make(BUNDLE, accs).to_json() == (start + value.scale(k)).to_json()

    @pytest.mark.parametrize("identity", sorted(COMPOSED))
    def test_fused_defect_matches_the_composed_sum(self, identity, monkeypatch):
        check, names, plant, composed = COMPOSED[identity]
        args = [OPS[n] for n in names]
        plant(monkeypatch)
        res = check(*args)
        expected = composed(*args)
        assert not res.holds and not expected.is_zero()
        assert res.value.to_json() == expected.to_json()


# -- the coordinate bracket reads no jet partials -----------------------------------


def doubled_partials(monkeypatch):
    """Plant a defect: every jet partial comes out twice its value."""
    real = PolyExpr._jet_partials
    monkeypatch.setattr(PolyExpr, "_jet_partials", lambda e: {v: p.scale(2) for v, p in real(e).items()})


class TestPartialsIndependence:
    @pytest.mark.parametrize("name", ["bracket-oracle", "antihom", "prop2"])
    def test_doubled_partials_fail_the_oracle_checks(self, name, monkeypatch):
        f, g, h = (OPS[n] for n in ("f", "g", "h"))
        args = {"bracket-oracle": (f, g), "antihom": (f, g, 1), "prop2": (f, g, h)}[name]
        check = getattr(identities, identities.IDENTITIES[name][0])
        assert check(*args).holds
        doubled_partials(monkeypatch)
        assert not check(*args).holds

    def test_coordinate_bracket_and_evolutionary_apply_need_no_partials(self, monkeypatch):
        f, g = OPS["f"], OPS["g"]
        e = U * UX**2 - V * C + X
        bracket, applied = calculus.jacobi_bracket_coord(f, g), evolutionary_apply(g, e)

        def no_partials(e):
            raise AssertionError("_jet_partials called")

        monkeypatch.setattr(PolyExpr, "_jet_partials", no_partials)
        assert calculus.jacobi_bracket_coord(f, g) == bracket
        assert evolutionary_apply(g, e) == applied


# -- a Hessian oracle that reads no jet partials ------------------------------------


def hessian_oracle(f, g, h):
    """hessian_form(f, g, h) as E_h(E_g f) - E_{E_h g}(f), E = evolutionary_apply.

    E_g f is l_f g, and by the Leibniz rule E_h(l_f g) = Hess_f(g, h) +
    l_f(E_h g), where l_f(E_h g) = E_{E_h g} f.  Only the evolutionary kernel
    runs, so no jet partial is taken."""
    return evolutionary_apply(h, evolutionary_apply(g, f)) - evolutionary_apply(evolutionary_apply(h, g), f)


class TestHessianOracle:
    @given(n=st.sampled_from((1, 2, 3)), r=st.sampled_from((1, 2, 3)), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_hessian_form_matches_the_oracle(self, n, r, seed):
        bundle = Bundle(("x", "y", "z")[:n], ("u", "v", "w")[:r], ("c",))
        f, g, h = (VectorOperator(draw(seed + 3 * k + j, bundle) for j in range(r)) for k in range(3))
        assert calculus.hessian_form(f, g, h) == hessian_oracle(f, g, h)

    def test_doubled_partials_fail_only_the_hessian_side(self, monkeypatch):
        # The planted fault quadruples hessian_form, which takes two rounds of
        # partials; the oracle reads none and keeps its value.
        f, g, h = (OPS[n] for n in ("f", "g", "h"))
        form, oracle = calculus.hessian_form(f, g, h), hessian_oracle(f, g, h)
        assert form == oracle and not form.is_zero()
        doubled_partials(monkeypatch)
        assert hessian_oracle(f, g, h) == oracle
        assert calculus.hessian_form(f, g, h) == form.scale(4) != oracle


# -- input chains shared within a check -------------------------------------------

# Every check that hands InputChains to its kernels, with its operand names.
CHAINED = {name: (getattr(identities, identities.IDENTITIES[name][0]),
                  [key for key in identities.IDENTITIES[name][1] if key in identities.OPERANDS])
           for name in ("hess-sym", "prop2", "prop3", "jacobi", "antihom", "mu-lemma", "bracket-oracle")}
PLANTS = {name: plant for name, (_, _, plant, _) in COMPOSED.items()}
CHAIN_CASES = [(name, False) for name in sorted(CHAINED)] + [(name, True) for name in sorted(PLANTS)]


def order3_inputs(name, seed):
    """A suite-regime trial's operands at jet order 3 and degree 3."""
    rng = random.Random(seed)
    bundle = Bundle(("x", "y")[: rng.choice((1, 2))], ("u", "v")[: rng.choice((1, 2))])
    args = [random_vector_operator(bundle, rng.randrange(2**32), max_jet_order=3, max_degree=3)
            for _ in CHAINED[name][1]]
    if name == "antihom":
        args.append(2)
    return args


def residual_json(res):
    return json.dumps([res.value.to_json(), res.holds, res.context.get("operator_form_equal")])


def inputs_json(args):
    return json.dumps([a.to_json() if hasattr(a, "to_json") else a for a in args])


def fresh_chains(monkeypatch):
    """Make every InputChains hand out fresh caches, as before they were shared."""
    monkeypatch.setattr(operators.InputChains, "of", lambda self, g: operators.DerivativeCache(g))


def counting_total_derivatives(monkeypatch):
    calls = []
    real = PolyExpr.total_derivative
    monkeypatch.setattr(PolyExpr, "total_derivative", lambda e, i: calls.append(i) or real(e, i))
    return calls


class TestInputChains:
    def test_shared_inside_chains_fresh_outside(self):
        f, g = OPS["f"], OPS["g"]
        chains = operators.InputChains(f=f)
        assert chains.of(f) is chains.of(f)
        assert chains.of(g) is not chains.of(g)
        assert operators.FRESH.of(f) is not operators.FRESH.of(f)
        equal_copy = VectorOperator(f.components)
        assert equal_copy == f and chains.of(equal_copy) is not chains.of(f)

    @pytest.mark.parametrize("name, planted", CHAIN_CASES)
    def test_same_residual_as_fresh_caches(self, name, planted, monkeypatch):
        # Seeded order-3 trials, 20 as drawn and 4 with a planted defect (the
        # larger residuals cost more): the shared chains give the residual of
        # fresh caches, byte for byte, and leave every input as it was, so no
        # kernel writes into a cached D_sigma.
        check = CHAINED[name][0]
        if planted:
            PLANTS[name](monkeypatch)
        calls = counting_total_derivatives(monkeypatch)
        trials = [order3_inputs(name, seed) for seed in range(4 if planted else 20)]
        before = [inputs_json(args) for args in trials]
        shared = [check(*args) for args in trials]
        shared_calls = len(calls)
        assert [inputs_json(args) for args in trials] == before
        with monkeypatch.context() as m:
            fresh_chains(m)
            fresh = [check(*args) for args in trials]
        assert list(map(residual_json, shared)) == list(map(residual_json, fresh))
        assert all(res.holds for res in shared) != planted
        if name == "bracket-oracle":
            assert shared_calls * 2 == len(calls)
        else:
            assert shared_calls * 2 < len(calls)

    def test_planted_defect_in_one_oracle_side_fails_bracket_oracle(self, monkeypatch):
        # The first cache built for g, the bracket side's, reads D_0(g_1) off
        # by one.  With a cache of its own the coordinate side disagrees; if
        # the two sides read one cache the defect would cancel.
        b = Bundle(("x",), ("u",))
        u, ux, uxx = b.fiber_var(0), b.jet(0, (1,)), b.jet(0, (2,))
        f, g = VectorOperator([u * uxx + ux]), VectorOperator([u * ux])
        planted = []

        class Planted(operators.DerivativeCache):
            __slots__ = ()

            def __init__(self, exprs):
                super().__init__(exprs)
                if exprs is g and not planted:
                    planted.append(self)

            def get(self, j, sigma):
                out = super().get(j, sigma)
                return out + 1 if self in planted and j == 0 and not any(sigma) else out

        monkeypatch.setattr(operators, "DerivativeCache", Planted)
        res = identities.check_bracket_oracle(f, g)
        assert planted and not res.holds
        assert res.value == VectorOperator([uxx])  # d(f_1)/du times the planted 1
        planted.clear()
        accs = [{}]
        chains = operators.InputChains(f=f, g=g)
        calculus._bracket_into(accs, f, g, 1, chains)
        calculus._bracket_coord_into(accs, f, g, -1, chains)
        assert planted and VectorOperator._make(b, accs).is_zero()


# -- operator forms against a textbook reference ----------------------------------


def ref_add_term(entries, ij, sigma, term):
    cell = entries.setdefault(ij, {})
    cell[sigma] = cell.get(sigma, term.bundle.zero()) + term


def ref_compose(a, b, entries, k=1):
    """Add k * (a after b) into entries, {(i, l): {sigma: PolyExpr}}, by the
    textbook Leibniz rule: D_sigma after c D_tau is the sum over kappa <= sigma
    of binom_product(sigma, kappa) D_kappa(c) D_{sigma - kappa + tau}."""
    for i, j, l in itertools.product(range(a.rows), range(a.cols), range(b.cols)):
        for sigma, coeff in a.entry(i, j).items():
            for tau, c in b.entry(j, l).items():
                for kappa in sub_indices(sigma):
                    term = (coeff * c.total_derivative_multi(kappa)).scale(k * binom_product(sigma, kappa))
                    ref_add_term(entries, (i, l), sigma.checked_sub(kappa) + tau, term)
    return entries


def ref_linearize(f, entries, k=1):
    """Add k * linearize(f) into entries, from one partial per jet coordinate."""
    for i, comp in enumerate(f.components):
        for v in comp.jet_coordinates():
            ref_add_term(entries, (i, v.index), v.sigma, comp.partial(v).scale(k))
    return entries


def ref_hessian_operator(f, g, entries, k=1):
    """Add k * hessian_operator(f, g) into entries: evolutionary_apply once
    per first partial of f."""
    for i, comp in enumerate(f.components):
        for v in comp.jet_coordinates():
            ref_add_term(entries, (i, v.index), v.sigma, evolutionary_apply(g, comp.partial(v)).scale(k))
    return entries


def ref_json(bundle, entries):
    r = bundle.r
    return CDiffOperator(bundle, r, r, entries).to_json()


def planted_binomial(monkeypatch):
    """Plant a defect: the Leibniz table's binomial of kappa = sigma, for
    every sigma of positive order, comes out one too large."""
    real = operators._leibniz

    def leibniz(sigma, tau):
        *rest, (kappa, key, c) = real(sigma, tau)
        return (*rest, (kappa, key, c + 1)) if sigma.order else real(sigma, tau)

    monkeypatch.setattr(operators, "_leibniz", leibniz)


class TestOperatorForms:
    @given(n=st.sampled_from((1, 2, 3)), r=st.sampled_from((1, 2, 3)), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_match_the_textbook_reference(self, n, r, seed):
        bundle = Bundle(("x", "y", "z")[:n], ("u", "v", "w")[:r], ("c",))
        f, g = (VectorOperator(draw(seed + 4 * k + j, bundle, 3) for j in range(r)) for k in range(2))
        lf, lg = calculus.linearize(f), calculus.linearize(g)
        assert lf.compose(lg).to_json() == ref_json(bundle, ref_compose(lf, lg, {}))
        assert lf.commutator(lg).to_json() == ref_json(bundle, ref_compose(lg, lf, ref_compose(lf, lg, {}), -1))
        assert calculus.hessian_operator(f, g).to_json() == ref_json(bundle, ref_hessian_operator(f, g, {}))
        # Both sides of the anomaly, with linearizations and bracket of the reference.
        rf, rg = (CDiffOperator(bundle, r, r, ref_linearize(e, {})) for e in (f, g))
        lhs = ref_compose(rg, rf, ref_compose(rf, rg, {}), -1)
        ref_linearize(calculus.jacobi_bracket_coord(f, g), lhs, -1)
        rhs = ref_hessian_operator(f, g, ref_hessian_operator(g, f, {}), -1)
        got = identities.anomaly_operators(f, g)
        assert [side.to_json() for side in got] == [ref_json(bundle, lhs), ref_json(bundle, rhs)]

    def test_planted_binomial_fails_prop2_through_the_operator_form(self, monkeypatch):
        # Seeded order-3 suite; every failing trial has unequal operator forms.
        def suite():
            return identities.run_random_suite("prop2", trials=10, seed=1, max_jet_order=3, max_degree=3)

        assert suite()["holds"]
        planted_binomial(monkeypatch)
        seen = []
        check = identities.check_linearization_anomaly
        monkeypatch.setattr(identities, "check_linearization_anomaly",
                            lambda *args: seen.append(check(*args)) or seen[-1])
        report = suite()
        failed = [res for res in seen if not res.holds]
        assert not report["holds"] and len(failed) == len(report["failures"])
        assert all(res.context["operator_form_equal"] is False for res in failed)


# -- which error bad operands get ------------------------------------------------

# One rank-1 and one rank-2 operator on each of three bundles; only the rank-r
# operator of an r-fiber bundle is a section-rank operand.
OPERAND_BUNDLES = {"a": Bundle(("x",), ("u",)), "b": Bundle(("x", "y"), ("u", "v")), "c": Bundle(("x",), ("u", "v"))}
OPERANDS = {
    f"{key}{rank}": VectorOperator(
        random_expr(bundle, 10 * seed + i, max_jet_order=2, max_degree=2) for i in range(rank)
    )
    for seed, (key, bundle, rank) in enumerate(
        (key, bundle, rank) for key, bundle in OPERAND_BUNDLES.items() for rank in (1, 2)
    )
}
OPERAND_CALLS = {
    **{name: getattr(identities, identities.IDENTITIES[name][0]) for name in ("hess-sym", "prop2", "prop3", "jacobi", "mu-lemma")},
    "hessian_form": calculus.hessian_form,
    "bracket-oracle": identities.check_bracket_oracle,
    "jacobi_bracket": calculus.jacobi_bracket,
    "jacobi_bracket_coord": calculus.jacobi_bracket_coord,
    "apply": lambda f, g: calculus.linearize(f).apply(g),
}
OPERAND_ERRORS = ROOT / "tests" / "golden" / "operand_errors.txt"
OPERAND_ERRORS_DIGEST = "1228f8788668fb8cc7361660999ba5f9fb95ea8f04f0d3f7da38dadb29649c39"


def operand_error_lines() -> list:
    """One line per call of OPERAND_CALLS on every ordered tuple of OPERANDS:
    the call, then a short digest of its result or the error's type and message."""

    def digest(value):
        return hashlib.sha256(json.dumps(value.to_json()).encode()).hexdigest()[:12]

    lines = []
    for name, call in OPERAND_CALLS.items():
        arity = 2 if name in ("bracket-oracle", "jacobi_bracket", "jacobi_bracket_coord", "apply") else 3
        for names in itertools.product(OPERANDS, repeat=arity):
            try:
                out = call(*(OPERANDS[n] for n in names))
                got = f"holds={out.holds} {digest(out.value)}" if isinstance(out, identities.Residual) else digest(out)
            except Exception as e:
                got = f"{type(e).__name__}: {e}"
            lines.append(f"{name} {' '.join(names)} -> {got}")
    return lines


def expected_outcome(name: str, slots: tuple, ops: tuple):
    """The error class and first bad slot that the operands' bundles and
    ranks alone call for, or None for a result.  Section operands are over
    the first slot's signature, then each has rank equal to that bundle's
    fiber count; apply's operand g is over the operator's signature, then
    has rank equal to its column count."""
    if name == "apply":
        f, g = ops
        if g.bundle != f.bundle:
            return SignatureMismatchError, "g"
        return (ShapeMismatchError, "g") if g.rank != f.bundle.r else None
    bundle = ops[0].bundle
    for slot, op in zip(slots, ops):
        if op.bundle != bundle:
            return SignatureMismatchError, slot
    for slot, op in zip(slots, ops):
        if op.rank != bundle.r:
            return RankMismatchError, slot
    return None


class TestOperandErrors:
    # Every call checks its operands by one rule, whatever order its kernels
    # run in: each rule over every slot before the next rule, and the error
    # names the first slot that breaks it.  The lines are in
    # tests/golden/operand_errors.txt, which the digest pins.
    def test_each_error_follows_the_rule(self):
        for name, call in OPERAND_CALLS.items():
            params = inspect.signature(call).parameters.values()
            slots = tuple(p.name for p in params if p.default is p.empty)
            for names in itertools.product(OPERANDS, repeat=len(slots)):
                ops = tuple(OPERANDS[n] for n in names)
                try:
                    call(*ops)
                    got = None
                except (SignatureMismatchError, RankMismatchError, ShapeMismatchError) as e:
                    got = type(e), str(e).split()[0]
                assert got == expected_outcome(name, slots, ops), (name, names)

    def test_every_call_gives_the_recorded_result_or_error(self):
        assert all(not op.is_zero() for op in OPERANDS.values())
        lines = operand_error_lines()
        assert len(lines) == 1440
        if hashlib.sha256("\n".join(lines).encode()).hexdigest() != OPERAND_ERRORS_DIGEST:
            recorded = OPERAND_ERRORS.read_text(encoding="utf-8").splitlines() + [None]
            got = lines + [None]
            k = next((k for k, (a, b) in enumerate(zip(got, recorded)) if a != b), None)
            if k is None:
                pytest.fail(f"{OPERAND_ERRORS} no longer matches its digest")
            pytest.fail(f"line {k + 1} differs: got {got[k]!r}, recorded {recorded[k]!r}")


class TestDegreeBound:
    def test_power_at_the_bound(self, scalar_bundle):
        b = scalar_bundle
        u, p = b.fiber_var(0), b.jet(0, (1,))
        expected = MAX_DEGREE * u ** (MAX_DEGREE - 1) * p
        assert (u**MAX_DEGREE).total_derivative(0) == expected

    def test_power_beyond_the_bound(self, scalar_bundle):
        u = scalar_bundle.fiber_var(0)
        with pytest.raises(ValueError):
            u ** (MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            (u * u) ** (MAX_DEGREE // 2 + 1)
        with pytest.raises(ValueError):
            scalar_bundle.one() ** (MAX_DEGREE + 1)

    def test_constructor_and_json(self, scalar_bundle):
        mono = ((scalar_bundle.jet_coord(0, (0,)), MAX_DEGREE + 1),)
        with pytest.raises(ValueError):
            PolyExpr(scalar_bundle, {mono: 1})
        for power in (MAX_DEGREE + 1, 0):  # u^0 would be a non-canonical 1
            doc = {"monomials": [{"coeff": "1", "vars": [{"var": "p[1]^(0)", "pow": power}]}]}
            with pytest.raises(ValueError):
                PolyExpr.from_json(doc, scalar_bundle)

    @pytest.mark.parametrize("factor, code", [("u^400", 0), ("u^401", 2)])
    def test_cli_bounds_a_product(self, tmp_path, capsys, factor, code):
        session = tmp_path / "product.jet"
        session.write_text(f"base x; fiber u; op F = [u^600*{factor}];")
        assert main(["linearize", "--session", str(session), "--op", "F"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("error: ") and "1001" in captured.err
            assert captured.out == ""
        else:
            assert "1000*u^999" in captured.out

    def test_cli_rejects_a_huge_exponent(self, tmp_path, capsys):
        session = tmp_path / "huge.jet"
        session.write_text("base x; fiber u; op F = [u^100000];")
        code = main(["linearize", "--session", str(session), "--op", "F"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""


# -- fresh processes with shuffled intern tables ---------------------------------

SHUFFLE = """
import random, sys
from jetcalc.expressions import _intern, indices_up_to, JetCoordinate
coords = [JetCoordinate(kind, index) for kind in (0, 1) for index in range(2)]
coords += [JetCoordinate(2, j, s) for n in (1, 2) for j in range(2) for s in indices_up_to(n, 5)]
random.Random(int(sys.argv[1])).shuffle(coords)
for v in coords:
    _intern(v)
"""

TRANSCRIPT = """
import contextlib, io, json
from jetcalc import VectorOperator
from jetcalc.cli import main
from jetcalc.identities import SUITE_IDENTITIES, run_random_suite
INTRO = {intro!r}
commands = [
    ["linearize", "--op", "F"],
    ["bracket", "--left", "F", "--right", "G"],
    ["hessian", "--f", "F", "--g", "G", "--h", "U"],
    ["anomaly", "--f", "F", "--g", "G"],
]
for cmd in commands:
    for fmt in ("text", "latex", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(cmd + ["--session", INTRO, "--format", fmt])
        print(code, out.getvalue())
VectorOperator.is_zero = lambda self: False
for identity in SUITE_IDENTITIES:
    print(json.dumps(run_random_suite(identity, trials=3, seed=5)))
"""


def run_fresh(script: str, *args, stdin: bytes = b"") -> bytes:
    env = dict(os.environ)
    src = str(Path(jetcalc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        input=stdin, capture_output=True, env=env, check=True, timeout=300,
    )
    return done.stdout


class TestProcessLocalIds:
    def test_pickle_rebuilds_from_coordinates(self):
        e = draw(7) * draw(8).total_derivative(0)
        load = SHUFFLE + (
            "import json, pickle\n"
            "e = pickle.loads(sys.stdin.buffer.read())\n"
            "print(json.dumps([e.to_json(), e.total_derivative(1).to_json()]))\n"
        )
        out = run_fresh(load, 3, stdin=pickle.dumps(e))
        assert json.loads(out) == [e.to_json(), e.total_derivative(1).to_json()]

    def test_output_independent_of_intern_order(self):
        transcript = TRANSCRIPT.format(intro=str(ROOT / "fixtures" / "intro.jet"))
        normal = run_fresh("import sys\n" + transcript)
        assert normal.count(b"error") == 0 and len(normal.splitlines()) > 20
        for seed in (1, 2):
            assert run_fresh(SHUFFLE + transcript, seed) == normal

    def test_concurrent_interning_gives_one_id_per_coordinate(self):
        # Fresh coordinates (three base directions, high orders) that no other
        # test interns, raced by more threads than cores.
        fresh = [JetCoordinate(JET, 9, MultiIndex((a, b, 40))) for a in range(20) for b in range(20)]
        seen = [None] * 4

        def work(k):
            order = fresh[:]
            random.Random(k).shuffle(order)
            seen[k] = {v: _intern(v) for v in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(seen))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(ids == seen[0] for ids in seen)
        assert len(_COORDS) == len(_IDS)
        assert all(_COORDS[seen[0][v]] == v for v in fresh)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every jetcalc command is a fresh process; importing these two costs
    # it 12-15 ms.
    out = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import jetcalc.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert out.strip() == b"[]"
