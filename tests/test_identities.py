import hashlib
import inspect
import json
import weakref

import pytest

from jetcalc import (
    Bundle,
    PolyExpr,
    SignatureMismatchError,
    VectorOperator,
    check_bracket_leibniz,
    check_bracket_oracle,
    check_commutation,
    check_evolutionary_antihomomorphism,
    check_hessian_symmetry,
    check_jacobi_identity,
    check_linearization_anomaly,
    check_multiplier_identity,
    evolutionary_apply,
    random_vector_operator,
    run_random_suite,
)
from jetcalc import identities
from jetcalc.dsl import parse
from jetcalc.identities import IDENTITIES, SUITE_IDENTITIES, Residual, trial, trial_seed
from jetcalc.multiindex import MAX_ORDER


def cubic(bundle):
    return VectorOperator([bundle.fiber_var(0) ** 3])


def test_residual_fields_are_assignable(scalar_bundle):
    zero = VectorOperator.zero(scalar_bundle)
    res, other = Residual(zero, True), Residual(zero, True)
    res.context["identity"] = "x"
    assert other.context == {}
    res.holds, res.context = False, {}
    assert (res.holds, res.context) == (False, {})


class TestHessianSymmetry:
    def test_running_example(self, intro_pair):
        b, f, g = intro_pair
        res = check_hessian_symmetry(f, g, cubic(b))
        assert res.holds

    def test_linear_operator(self, scalar_bundle):
        b = scalar_bundle
        lin = VectorOperator([b.jet(0, (2,)) - b.fiber_var(0)])
        g = random_vector_operator(b, 3)
        h = random_vector_operator(b, 4)
        res = check_hessian_symmetry(lin, g, h)
        assert res.holds and res.value.is_zero()


class TestLinearizationAnomaly:
    def test_running_example_sides(self, intro_pair):
        # the two assembled operator sides agree entry by entry as well
        b, f, g = intro_pair
        res = check_linearization_anomaly(f, g, cubic(b))
        assert res.holds
        assert res.context["operator_form_equal"]

    def test_linear_pair(self, scalar_bundle):
        b = scalar_bundle
        f = VectorOperator([b.jet(0, (1,))])
        g = VectorOperator([b.jet(0, (2,))])
        res = check_linearization_anomaly(f, g, cubic(b))
        assert res.holds


class TestBracketLeibniz:
    def test_classical_case(self, scalar_bundle):
        b = scalar_bundle
        f = VectorOperator([b.jet(0, (1,))])
        g = VectorOperator([b.jet(0, (2,))])
        res = check_bracket_leibniz(f, g, cubic(b))
        assert res.holds

    def test_running_example(self, intro_pair):
        b, f, g = intro_pair
        res = check_bracket_leibniz(f, g, cubic(b))
        assert res.holds


class TestJacobi:
    def test_repeated_argument(self, intro_pair):
        b, f, g = intro_pair
        assert check_jacobi_identity(f, f, g).holds

    def test_running_example(self, intro_pair):
        b, f, g = intro_pair
        u = VectorOperator([b.fiber_var(0)])
        assert check_jacobi_identity(f, g, u).holds


def coordinate_defect(f, g, bracket, v):
    """The antihom defect on one jet coordinate v, through the public kernels."""
    e = f.bundle.coord_var(v)
    return (evolutionary_apply(bracket, e) + evolutionary_apply(f, evolutionary_apply(g, e))
            - evolutionary_apply(g, evolutionary_apply(f, e)))


class TestAntihomomorphism:
    def test_generator_probes(self, intro_pair):
        # Order 0: the fiber variables alone.
        b, f, g = intro_pair
        res = check_evolutionary_antihomomorphism(f, g, 0)
        assert res.holds
        assert len(res.value.components) == b.r

    def test_jet_probes(self, intro_pair):
        b, f, g = intro_pair
        res = check_evolutionary_antihomomorphism(f, g, 4)
        assert res.holds
        assert len(res.value.components) == len(b.jet_coordinates_up_to(4))
        assert res.context["probe_order"] == 4

    def test_empty_probe_set_rejected(self, intro_pair):
        _, f, g = intro_pair
        with pytest.raises(ValueError, match="need at least one probe expression"):
            check_evolutionary_antihomomorphism(f, g, -1)
        with pytest.raises(ValueError, match=f"probe order {MAX_ORDER + 1} exceeds the limit {MAX_ORDER}"):
            check_evolutionary_antihomomorphism(f, g, MAX_ORDER + 1)

    def test_bracket_cache_holds_at_most_one_derivative_per_order(self, fixtures_dir, monkeypatch):
        # The walk builds each D_sigma{f,g} by one total derivative of its
        # parent.  The bracket's components are made weakly referable, and so
        # is every derivative taken from one of them, so each such call can
        # count the bracket derivatives of positive order still alive.
        class Tracked(PolyExpr):
            __slots__ = ("__weakref__",)

        made, alive = [], []
        real = PolyExpr.total_derivative

        def total_derivative(e, i):
            out = real(e, i)
            if isinstance(e, Tracked):
                alive.append(sum(r() is not None for r in made))
                out = Tracked._make(out.bundle, out._terms)
                made.append(weakref.ref(out))
            return out

        bracket = identities.jacobi_bracket
        monkeypatch.setattr(PolyExpr, "total_derivative", total_derivative)
        monkeypatch.setattr(identities, "jacobi_bracket", lambda f, g, chains: VectorOperator(
            Tracked._make(c.bundle, c._terms) for c in bracket(f, g, chains).components))
        session = parse((fixtures_dir / "deep.jet").read_text())
        f, g = session.operators["F"], session.operators["G"]
        assert trial("antihom", {"f": f, "g": g, "probe_order": 8})[0].holds
        # One call per p^j_sigma with 0 < |sigma| <= 8: 2 fibers x 44 indices.
        # In derivative-tree order only the head of the current row and the
        # parent of the next derivative on it are alive.
        assert len(alive) == 88
        assert max(alive) == 2
        assert all(r() is None for r in made)

    def test_shuffled_probes_keep_their_places(self, plane_bundle, monkeypatch):
        # A wrong bracket gives each coordinate a nonzero defect of its own,
        # so a defect stored at another coordinate's index would show.  The
        # walk visits them in derivative-tree order, not in the residual's.
        b = plane_bundle
        f, g = random_vector_operator(b, 11), random_vector_operator(b, 12)
        monkeypatch.setattr(identities, "jacobi_bracket", lambda f, g, chains: f)
        coords = b.jet_coordinates_up_to(3)
        res = check_evolutionary_antihomomorphism(f, g, 3)
        alone = [coordinate_defect(f, g, f, v) for v in coords]
        assert list(res.value.components) == alone
        assert len({str(c) for c in alone if c}) == len(coords)

    def test_coordinate_probe_seeds_a_copy(self, plane_bundle, monkeypatch):
        # Each defect's accumulator starts from D_sigma{f,g}, which the walk
        # then derives the children of sigma from.  A defect that adopted its
        # terms would add its products into the next derivatives, and into
        # the bracket itself.
        b = plane_bundle
        f, g = random_vector_operator(b, 11), random_vector_operator(b, 12)
        wrong = random_vector_operator(b, 13)
        before = wrong.to_json()
        monkeypatch.setattr(identities, "jacobi_bracket", lambda f, g, chains: wrong)
        res = check_evolutionary_antihomomorphism(f, g, 2)
        assert wrong.to_json() == before
        alone = [coordinate_defect(f, g, wrong, v) for v in b.jet_coordinates_up_to(2)]
        assert list(res.value.components) == alone
        assert all(alone)

    def test_operand_over_another_signature(self, plane_bundle):
        f = random_vector_operator(plane_bundle, 7)
        g = random_vector_operator(Bundle(("x", "y"), ("u", "v"), ("c",)), 8)
        with pytest.raises(SignatureMismatchError) as err:
            check_evolutionary_antihomomorphism(f, g, 2)
        assert str(err.value) == "g is over another signature than f"


class TestThreeBaseVariables:
    # The suites draw n from {1, 2}; these trials run the checks with n = 3.
    BUNDLE = Bundle(("x", "y", "z"), ("u", "v"))

    def operators(self, *seeds):
        return [random_vector_operator(self.BUNDLE, seed) for seed in seeds]

    def test_antihomomorphism(self):
        f, g = self.operators(36, 46)
        assert trial("antihom", {"f": f, "g": g, "probe_order": 2})[0].holds

    def test_jacobi_identity(self):
        assert check_jacobi_identity(*self.operators(38, 45, 47)).holds


class TestCommutation:
    def test_frozen_example(self, scalar_bundle):
        # zeta=(1), tau=(2), e=u_x^2: both sides equal 2*u_xxx
        b = scalar_bundle
        e = b.jet(0, (1,)) ** 2
        res = check_commutation((1,), (2,), 0, e)
        assert res.holds
        lhs = e.total_derivative_multi((2,)).partial(b.jet_coord(0, (1,)))
        assert lhs == 2 * b.jet(0, (3,))

    def test_zero_tau_is_identity(self, scalar_bundle):
        b = scalar_bundle
        e = b.fiber_var(0) * b.jet(0, (1,))
        assert check_commutation((2,), (0,), 0, e).holds

    def test_random_two_variables(self, plane_bundle):
        from jetcalc import random_expr

        for seed in range(10):
            e = random_expr(plane_bundle, seed)
            res = check_commutation((1, 1), (2, 1), 1, e)
            assert res.holds

    def test_defect_under_a_wrong_multiplicity(self, plane_bundle, monkeypatch):
        # The defect is D_tau(e)'s partial minus the closed form, each term
        # with the multiplicity the check reads, summed in one accumulator.
        from jetcalc import random_expr
        from jetcalc.multiindex import MultiIndex, binom_product, sub_indices

        monkeypatch.setattr(identities, "binom_product", lambda tau, kappa: binom_product(tau, kappa) + 1)
        zeta, tau = MultiIndex((1, 1)), MultiIndex((2, 1))
        for seed in range(5):
            e = random_expr(plane_bundle, seed, max_jet_order=3, max_degree=3)
            want = e.total_derivative_multi(tau).partial(plane_bundle.jet_coord(1, zeta))
            for kappa in sub_indices(tau):
                if zeta.checked_sub(kappa) is not None:
                    part = e.partial(plane_bundle.jet_coord(1, zeta.checked_sub(kappa)))
                    want -= part.total_derivative_multi(tau.checked_sub(kappa)).scale(binom_product(tau, kappa) + 1)
            res = check_commutation(zeta, tau, 1, e)
            assert res.value == VectorOperator([want]) and res.holds == want.is_zero()

    @pytest.mark.parametrize(
        "zeta, tau, fiber, message",
        [
            ((0,), (0, 0), 5, r"multi-index \(0, 0\) has wrong length for 1 base variables"),
            ((0, 0), (0,), 5, "fiber index 5 out of range"),
            ((0, 0), (0,), 0, r"multi-index \(0, 0\) has wrong length for 1 base variables"),
        ],
        ids=["tau first", "then the fiber", "then zeta"],
    )
    def test_validation_order(self, scalar_bundle, zeta, tau, fiber, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_commutation(zeta, tau, fiber, scalar_bundle.fiber_var(0))


class TestMultiplierIdentity:
    def test_linear_inputs(self, scalar_bundle):
        b = scalar_bundle
        g = VectorOperator([b.jet(0, (1,))])
        h = VectorOperator([b.jet(0, (2,))])
        mu = VectorOperator([b.fiber_var(0)])
        assert check_multiplier_identity(g, h, mu).holds

    def test_running_example(self, intro_pair):
        b, f, g = intro_pair
        mu = VectorOperator([b.fiber_var(0) ** 2])
        assert check_multiplier_identity(f, g, mu).holds


def recording_trial(identity, inputs, k, seed):
    """A trial that runs no check and records its seed and drawn inputs."""
    return None, {"trial": k, "seed": seed, "inputs": {n: v.to_json() for n, v in inputs.items()}}


class TestSuites:
    def test_default_trials_and_seed(self, monkeypatch):
        monkeypatch.setattr(identities, "trial", recording_trial)
        report = run_random_suite("bracket-oracle")
        assert report == run_random_suite("bracket-oracle", trials=100, seed=0)
        assert [r["seed"] for r in report["failures"]] == [trial_seed(0, k) for k in range(100)]

    def test_default_coeff_pool(self, monkeypatch):
        monkeypatch.setattr(identities, "trial", recording_trial)
        report = run_random_suite("prop2", trials=5, seed=2)
        assert report == run_random_suite("prop2", trials=5, seed=2, coeff_pool=(-2, -1, 0, 1, 2))
        assert report["regime"]["coeff_pool"] == ["-2", "-1", "0", "1", "2"]

    @pytest.mark.parametrize("identity", SUITE_IDENTITIES)
    def test_small_suite_holds(self, identity):
        report = run_random_suite(identity, trials=25, seed=11)
        assert report["holds"]
        assert report["failures"] == []
        assert report["identity"] == identity
        assert report["trials"] == 25
        assert report["seed"] == 11

    def test_reports_are_deterministic(self):
        a = run_random_suite("prop2", trials=10, seed=3)
        b = run_random_suite("prop2", trials=10, seed=3)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_trial_seeds_are_distinct(self):
        seeds = [trial_seed(7, k) for k in range(100)]
        assert len(set(seeds)) == 100

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            run_random_suite("not-an-identity")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_vacuous_suite(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            run_random_suite("prop2", trials=trials)

    @pytest.mark.parametrize("bound", ["max_jet_order"])
    def test_suite_orders_at_and_beyond_the_limit(self, bound):
        report = run_random_suite("commutation-lemma", trials=1, seed=1, **{bound: MAX_ORDER})
        assert report["holds"]
        with pytest.raises(ValueError, match=f"order {MAX_ORDER + 1} exceeds the limit"):
            run_random_suite("commutation-lemma", trials=1, **{bound: MAX_ORDER + 1})

    @pytest.mark.parametrize("identity", ["jacobi", "antihom", "commutation-lemma"])
    def test_failure_record_replays_through_trial(self, identity, monkeypatch):
        # The inputs read back from a failure record rebuild the same record.
        monkeypatch.setattr(VectorOperator, "is_zero", lambda self: False)
        record = run_random_suite(identity, trials=2, seed=5)["failures"][1]
        inputs = {
            k: VectorOperator.from_json(v) if k in ("f", "g", "h") else v
            for k, v in record["inputs"].items()
        }
        if identity == "commutation-lemma":
            inputs["e"] = PolyExpr.from_json(inputs["e"], Bundle.from_json(inputs.pop("signature")))
        assert trial(identity, inputs, record["trial"], record["seed"])[1] == record

    def test_failure_fixture_shape(self, intro_pair):
        # force a nonzero residual through a deliberately wrong check and make
        # sure the serialization used by the suite runner carries a replayable
        # fixture
        b, f, g = intro_pair
        res = check_bracket_oracle(f, g)
        assert res.holds
        broken = res.value + VectorOperator([b.one()])
        fixture = {"inputs": {"f": f.to_json(), "g": g.to_json()}, "residual": broken.to_json()}
        restored = VectorOperator.from_json(fixture["residual"])
        assert restored == VectorOperator([b.one()])
        assert VectorOperator.from_json(fixture["inputs"]["f"]) == f


class TestInputRegistry:
    """IDENTITIES names every input of a check, in the order of its parameters."""

    @pytest.mark.parametrize("identity", SUITE_IDENTITIES)
    def test_record_inputs_follow_the_registry(self, identity, monkeypatch):
        monkeypatch.setattr(VectorOperator, "is_zero", lambda self: False)
        names = list(IDENTITIES[identity][1])
        record = run_random_suite(identity, trials=1, seed=2)["failures"][0]
        # The signature of an expression input comes last.
        assert list(record["inputs"]) == names + (["signature"] if "e" in names else [])

    @pytest.mark.parametrize("identity", SUITE_IDENTITIES)
    def test_names_are_the_check_parameters(self, identity):
        check, names = IDENTITIES[identity]
        params = list(inspect.signature(getattr(identities, check)).parameters)
        assert list(names) == params


# sha256 of json.dumps(run_random_suite(name, trials=3, seed=5)) with every
# trial forced to record its inputs and residual.  A change to the order in
# which a suite draws its operands from the trial RNG moves these digests.
PINNED_SUITE_INPUTS = {
    "hess-sym": "895ca81f6cc640eec2547b4277d8939da7eeea5cca45ade567d1576f819bbb8c",
    "prop2": "c0e40e0d2f286c61a111da3e5c1d808b712c36cea312c231a4cba62e4a752379",
    "prop3": "37d580e643c68a295f6a370006a73d022a9183837a09a7919654d145ed61062f",
    "jacobi": "bfff4f03b62779ddbae2d8163e3d54da9bfb5bf973b493286d75a61f181d92f3",
    "antihom": "63b3e5b5bd531d79eb422fdc61b05ad53ee3e6d2a0627c91d75578a09c51f7b0",
    "commutation-lemma": "9c07e1b74e541c300492d785878176d5617ee12a6b18903a597b970c0082b35c",
    "mu-lemma": "23c22f4c69cfb29e376a9c538013c8f55032da8f016f283434c6401685f31e46",
    "bracket-oracle": "648261025afd7bc67fa1a4c3455f5bade4597bbf0bbfbd3ac4a2bd13be5da813",
}


class TestPinnedSuiteInputs:
    def test_every_identity_is_pinned(self):
        assert set(PINNED_SUITE_INPUTS) == set(SUITE_IDENTITIES)

    @pytest.mark.parametrize("identity", sorted(PINNED_SUITE_INPUTS))
    def test_sampled_inputs_are_stable(self, identity, monkeypatch):
        monkeypatch.setattr(VectorOperator, "is_zero", lambda self: False)
        report = run_random_suite(identity, trials=3, seed=5)
        assert [f["trial"] for f in report["failures"]] == [0, 1, 2]
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == PINNED_SUITE_INPUTS[identity]
