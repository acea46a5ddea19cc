import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import (
    AuxClaim,
    Bundle,
    CDiffOperator,
    SymmetryClaim,
    VectorOperator,
    aux_residual,
    evaluate_claim_file,
    linearize,
    nonhomogeneous_diagonal_pair,
    random_vector_operator,
    symmetry_residual,
)
from jetcalc import calculus, operators
from jetcalc.dsl import parse
from jetcalc.structures import MAX_JSON_NESTING, claim_residual, parse_claim


class TestSymmetryResidual:
    def test_operator_is_its_own_symmetry(self, plane_bundle):
        f = random_vector_operator(plane_bundle, 8)
        zero = VectorOperator.zero(plane_bundle)
        res = symmetry_residual(SymmetryClaim(f, f, zero))
        assert res.holds
        assert res.context["module_form"].is_zero()

    def test_translation_symmetry(self, scalar_bundle):
        b = scalar_bundle
        f = VectorOperator([b.jet(0, (2,))])
        h = VectorOperator([b.jet(0, (1,))])
        res = symmetry_residual(SymmetryClaim(f, h, VectorOperator.zero(b)))
        assert res.holds

    def test_diagonal_pair_fails_with_zero_witness(self):
        ex = nonhomogeneous_diagonal_pair()
        zero = VectorOperator.zero(ex.f.bundle)
        res = symmetry_residual(SymmetryClaim(ex.f, ex.g, zero))
        assert not res.holds
        assert res.value == ex.full_bracket

    def test_both_forms_agree_always(self, plane_bundle):
        for seed in range(10):
            f = random_vector_operator(plane_bundle, seed)
            h = random_vector_operator(plane_bundle, seed + 31)
            theta = random_vector_operator(plane_bundle, seed + 62)
            res = symmetry_residual(SymmetryClaim(f, h, theta))
            assert res.context["forms_agree"]
            assert res.value == res.context["module_form"]

    def test_forms_that_disagree_fail_the_claim(self, monkeypatch):
        # Plant a defect that only the module form sees: theta + h counts h
        # twice.  The bracket form still vanishes, so holds must read the
        # comparison.
        f = parse("base x; fiber u; op F = [u_x^2 + u*u_xx];").operators["F"]
        real = VectorOperator.__add__
        monkeypatch.setattr(VectorOperator, "__add__", lambda a, b: real(real(a, b), b))
        res = symmetry_residual(SymmetryClaim(f, f, VectorOperator.zero(f.bundle)))
        assert res.value.is_zero()
        assert not res.context["module_form"].is_zero()
        assert not res.context["forms_agree"]
        assert not res.holds


class TestAuxResidual:
    def test_zero_mu_reduces_to_symmetry(self, plane_bundle):
        # with mu = 0 and lambda = theta the aux residual is the symmetry residual
        for seed in range(10):
            f = random_vector_operator(plane_bundle, seed)
            g = random_vector_operator(plane_bundle, seed + 13)
            theta = random_vector_operator(plane_bundle, seed + 26)
            zero = VectorOperator.zero(plane_bundle)
            a = aux_residual(AuxClaim(f, g, theta, zero))
            s = symmetry_residual(SymmetryClaim(f, g, theta))
            assert a.value == s.value

    def test_self_pair(self, scalar_bundle):
        b = scalar_bundle
        f = VectorOperator([b.jet(0, (1,)) ** 2])
        zero = VectorOperator.zero(b)
        res = aux_residual(AuxClaim(f, f, zero, zero))
        assert res.holds

    def test_scalar_order_report(self, scalar_bundle):
        from fractions import Fraction

        b = scalar_bundle
        f = VectorOperator([b.jet(0, (2,)) + b.fiber_var(0) ** 2])
        g = VectorOperator([b.fiber_var(0)])
        mu = VectorOperator([(b.fiber_var(0) ** 2).scale(Fraction(1, 2))])
        res = aux_residual(AuxClaim(f, g, VectorOperator.zero(b), mu))
        assert res.holds
        assert res.context["order_f"] == 2
        assert res.context["order_mu"] == 0
        assert res.context["scalar_order_ok"] is True

    def test_vector_case_has_no_order_rule(self, plane_bundle):
        f = random_vector_operator(plane_bundle, 3)
        g = random_vector_operator(plane_bundle, 4)
        zero = VectorOperator.zero(plane_bundle)
        res = aux_residual(AuxClaim(f, g, zero, zero))
        assert res.context["scalar_order_ok"] is None


_PLANE = Bundle(("x", "y"), ("u", "v"))


def _additivity_holds(f, h1, t1, h2, t2):
    # The symmetry residual is additive in the (h, theta) pair.
    def residual(h, theta):
        return symmetry_residual(SymmetryClaim(f, h, theta)).value

    return residual(h1 + h2, t1 + t2) == residual(h1, t1) + residual(h2, t2)


class TestGradedAdditivity:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_vanishes_on_random_inputs(self, seed):
        f, h1, t1, h2, t2 = (random_vector_operator(_PLANE, seed + 5 * k) for k in range(5))
        assert _additivity_holds(f, h1, t1, h2, t2)

    def test_degenerate_second_pair(self, plane_bundle):
        f = random_vector_operator(plane_bundle, 1)
        h = random_vector_operator(plane_bundle, 2)
        t = random_vector_operator(plane_bundle, 3)
        zero = VectorOperator.zero(plane_bundle)
        assert _additivity_holds(f, h, t, zero, zero)


def test_claims_are_frozen(scalar_bundle):
    f = VectorOperator([scalar_bundle.fiber_var(0)])
    for claim in (SymmetryClaim(f, f, f), AuxClaim(f, f, f, f), nonhomogeneous_diagonal_pair()):
        with pytest.raises(AttributeError):
            claim.f = f


class TestDiagonalPair:
    def test_exact_brackets(self):
        ex = nonhomogeneous_diagonal_pair()
        b = ex.f.bundle
        minus_one_one = VectorOperator([b.const(-1), b.const(1)])
        assert ex.full_bracket == minus_one_one
        assert ex.full_bracket_coord == minus_one_one
        assert ex.linear_part_bracket.is_zero()

    def test_full_bracket_is_constant(self):
        ex = nonhomogeneous_diagonal_pair()
        assert ex.full_bracket.order == 0
        for comp in ex.full_bracket.components:
            assert comp.is_constant()

    def test_displayed_linearization(self):
        # diag(D_x^2 - D_y, D_x D_y + 1): the free terms drop out
        ex = nonhomogeneous_diagonal_pair()
        b = ex.f.bundle
        one = b.one()
        expected = CDiffOperator(
            b,
            2,
            2,
            {
                (0, 0): {(2, 0): one, (0, 1): -one},
                (1, 1): {(1, 1): one, (0, 0): one},
            },
        )
        assert linearize(ex.f) == expected

    def test_strip_free_terms(self):
        ex = nonhomogeneous_diagonal_pair()
        stripped = ex.f.strip_free_terms()
        b = ex.f.bundle
        assert stripped == VectorOperator(
            [b.jet(0, (2, 0)) - b.jet(0, (0, 1)), b.jet(1, (1, 1)) + b.fiber_var(1)]
        )


class TestClaimFiles:
    def test_shipped_claims_all_match(self, fixtures_dir):
        report = evaluate_claim_file(fixtures_dir / "claims.json")
        assert report["all_match"]
        names = {c["name"] for c in report["claims"]}
        assert "diagonal-pair-free-terms" in names

    def test_kind_filter(self, fixtures_dir):
        sym = evaluate_claim_file(fixtures_dir / "claims.json", kind="symmetry")
        aux = evaluate_claim_file(fixtures_dir / "claims.json", kind="aux")
        assert all(c["kind"] == "symmetry" for c in sym["claims"])
        assert all(c["kind"] == "aux" for c in aux["claims"])
        assert sym["claims"] and aux["claims"]

    def test_mismatch_detected(self, tmp_path):
        bad = {
            "claims": [
                {
                    "name": "wrong-expectation",
                    "kind": "symmetry",
                    "signature": {"base": ["x"], "fiber": ["u"], "params": []},
                    "f": ["u_x^2"],
                    "h": ["u"],
                    "theta": ["0"],
                    "expect": "zero",
                }
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        report = evaluate_claim_file(path)
        assert not report["all_match"]

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "claims": [
                        {
                            "kind": "nope",
                            "signature": {"base": ["x"], "fiber": ["u"], "params": []},
                            "expect": "zero",
                        }
                    ]
                }
            )
        )
        with pytest.raises(ValueError):
            evaluate_claim_file(path)

    AUX_CLAIM = {
        "kind": "aux",
        "signature": {"base": ["x"], "fiber": ["u"]},
        "f": ["u_xx"], "g": ["u_x"], "lambda": ["0"], "mu": ["0"],
        "expect": "zero",
    }

    def test_name_defaults_to_the_kind(self):
        assert parse_claim(self.AUX_CLAIM)[0] == "aux"
        assert parse_claim({**self.AUX_CLAIM, "name": "pair"})[0] == "pair"

    @pytest.mark.parametrize("name", [{"a": [1]}, 5, None, ["a"]])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValueError, match="field 'name' must be a string"):
            parse_claim({**self.AUX_CLAIM, "name": name})

    def test_brackets_inside_strings_do_not_nest(self, fixtures_dir, tmp_path):
        doc = json.loads((fixtures_dir / "claims.json").read_text())
        doc["claims"][0]["name"] = '\\"[{' * (2 * MAX_JSON_NESTING)
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(doc))
        assert evaluate_claim_file(path)["claims"][0]["name"] == doc["claims"][0]["name"]

    def test_unterminated_string_is_a_json_error(self, tmp_path):
        path = tmp_path / "open.json"
        path.write_text('{"claims": "' + "[" * (2 * MAX_JSON_NESTING))
        with pytest.raises(json.JSONDecodeError):
            evaluate_claim_file(path)


class TestSharedChains:
    # Per claim on the shipped file: the bracket form and the residual share
    # one derivative chain per input; the symmetry module form, compared
    # against the bracket form, builds its own.
    @pytest.mark.parametrize("kind, builds", [("symmetry", {"f": 2, "h": 2}), ("aux", {"f": 1, "g": 1})])
    def test_cache_builds_per_claim(self, kind, builds, fixtures_dir, monkeypatch):
        built = []

        class Recording(operators.DerivativeCache):
            def __init__(self, exprs):
                built.append(exprs)
                super().__init__(exprs)

        monkeypatch.setattr(operators, "DerivativeCache", Recording)
        monkeypatch.setattr(calculus, "DerivativeCache", Recording)
        records = json.loads((fixtures_dir / "claims.json").read_text())["claims"]
        claims = [parse_claim(r)[1] for r in records if r["kind"] == kind]
        assert len(claims) == 4
        for claim in claims:
            built.clear()
            claim_residual(kind, claim)
            assert {key: sum(c is getattr(claim, key) for c in built) for key in builds} == builds


def test_claim_expect_must_be_zero_or_nonzero():
    record = {"kind": "symmetry", "signature": {"base": ["x"], "fiber": ["u"]},
              "f": ["u_x"], "h": ["u"], "theta": ["0"], "expect": "maybe"}
    with pytest.raises(ValueError, match="^expect must be 'zero' or 'nonzero', got 'maybe'$"):
        parse_claim(record)
