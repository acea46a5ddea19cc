"""Acceptance suite: one test per contract criterion, exact arithmetic only.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Every equality below is canonical-form equality of exact
rational expressions; there are no tolerances anywhere.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from jetcalc import (
    Bundle,
    CDiffOperator,
    PolyExpr,
    VectorOperator,
    check_commutation,
    evaluate_claim_file,
    hessian_form,
    hessian_operator,
    jacobi_bracket,
    jacobi_bracket_coord,
    linearize,
    nonhomogeneous_diagonal_pair,
    random_expr,
    random_vector_operator,
    run_random_suite,
    substitute_section,
)
from jetcalc.cli import main
from jetcalc.dsl import parse, print_session
from jetcalc.identities import trial_seed
from jetcalc.multiindex import MultiIndex, binom_product

SEED = 7


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {description}")


def intro():
    b = Bundle(("x",), ("u",), ("c",))
    p = b.jet(0, (1,))
    f = VectorOperator([p * p])
    g = VectorOperator([p + b.param("c") * b.base_var(0)])
    return b, f, g


def suite_triple(bundle, k):
    rng = random.Random(trial_seed(SEED, k))
    return tuple(random_vector_operator(bundle, rng.randrange(2**32)) for _ in range(3))


def test_criterion_1_intro_example():
    with criterion(1, "running example: bracket, linearizations, commutator, anomaly"):
        t0 = time.monotonic()
        b, f, g = intro()
        p, p2, c = b.jet(0, (1,)), b.jet(0, (2,)), b.param("c")
        bracket = jacobi_bracket(f, g)
        assert bracket == VectorOperator([2 * c * p])
        lf, lg = linearize(f), linearize(g)
        assert lf == CDiffOperator(b, 1, 1, {(0, 0): {(1,): 2 * p}})
        assert lg == CDiffOperator(b, 1, 1, {(0, 0): {(1,): 1}})
        assert lf.commutator(lg) == CDiffOperator(b, 1, 1, {(0, 0): {(1,): -2 * p2}})
        assert linearize(bracket) == CDiffOperator(b, 1, 1, {(0, 0): {(1,): 2 * c}})
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_2_linearization_anomaly_suite():
    with criterion(2, "anomaly identity on 100 random triples"):
        t0 = time.monotonic()
        report = run_random_suite("prop2", trials=100, seed=SEED)
        assert report["holds"], report["failures"][:1]
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_3_bracket_leibniz_suite():
    with criterion(3, "compensated Leibniz identity on 100 random triples"):
        t0 = time.monotonic()
        report = run_random_suite("prop3", trials=100, seed=SEED)
        assert report["holds"], report["failures"][:1]
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_4_hessian_symmetry_and_double_definition():
    with criterion(4, "hessian symmetry and operator/form agreement, 100 triples"):
        report = run_random_suite("hess-sym", trials=100, seed=SEED)
        assert report["holds"]
        for k in range(100):
            rng = random.Random(trial_seed(SEED, k))
            n, r = rng.choice((1, 2)), rng.choice((1, 2))
            bundle = Bundle(("x", "y")[:n], ("u", "v")[:r])
            f, g, h = suite_triple(bundle, k)
            form = hessian_form(f, g, h)
            assert form == hessian_form(f, h, g)
            assert hessian_operator(f, g).apply(h) == form


def test_criterion_5_antihomomorphism_and_jacobi():
    with criterion(5, "evolutionary anti-homomorphism (probes to order 4) and Jacobi identity"):
        report = run_random_suite("antihom", trials=100, seed=SEED, probe_order=4)
        assert report["holds"], report["failures"][:1]
        report = run_random_suite("jacobi", trials=100, seed=SEED)
        assert report["holds"], report["failures"][:1]


def test_criterion_6_commutation_identity():
    with criterion(6, "partial/total-derivative commutation with binomial multiplicities"):
        report = run_random_suite("commutation-lemma", trials=100, seed=SEED)
        assert report["holds"], report["failures"][:1]

        # iteration oracle for the multiplicity: peeling single derivatives
        # doubles nothing; each peel maps the kappa-term to itself plus the
        # kappa+1_i term, so multiplicities follow the Pascal recursion
        def multiplicities(tau):
            acc = {MultiIndex.zero(len(tau)): 1}
            for i, reps in enumerate(tau):
                for _ in range(reps):
                    nxt = {}
                    for kappa, m in acc.items():
                        nxt[kappa] = nxt.get(kappa, 0) + m
                        nxt[kappa.bump(i)] = nxt.get(kappa.bump(i), 0) + m
                    acc = nxt
            return acc

        tau, kappa = MultiIndex((2,)), MultiIndex((1,))
        assert multiplicities(tau)[kappa] == 2
        assert binom_product(tau, kappa) == 2

        # the frozen worked example: zeta=(1), tau=(2), e=u_x^2
        b = Bundle(("x",), ("u",))
        e = b.jet(0, (1,)) ** 2
        res = check_commutation((1,), (2,), 0, e)
        assert res.holds
        assert e.total_derivative_multi((2,)).partial(b.jet_coord(0, (1,))) == 2 * b.jet(0, (3,))


def test_criterion_7_bracket_oracle_equivalence():
    with criterion(7, "both bracket implementations agree on 100 random pairs"):
        report = run_random_suite("bracket-oracle", trials=100, seed=SEED)
        assert report["holds"], report["failures"][:1]


def test_criterion_8_multiplier_identity_and_fixtures(fixtures_dir):
    with criterion(8, "multiplier identity suite and shipped claim fixtures"):
        report = run_random_suite("mu-lemma", trials=100, seed=SEED)
        assert report["holds"], report["failures"][:1]
        claims = evaluate_claim_file(fixtures_dir / "claims.json")
        assert claims["all_match"], [c for c in claims["claims"] if not c["matches"]]
        assert len(claims["claims"]) >= 6


def test_criterion_9_diagonal_pair(capsys):
    with criterion(9, "diagonal pair: linear parts commute, full bracket is (-1, 1)"):
        ex = nonhomogeneous_diagonal_pair()
        b = ex.f.bundle
        expected = VectorOperator([b.const(-1), b.const(1)])
        assert ex.linear_part_bracket.is_zero()
        assert ex.full_bracket == expected
        assert ex.full_bracket_coord == expected
        code = main(["section4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full bracket: [-1, 1]" in out
        assert "linear-part bracket: [0, 0]" in out
        assert "note:" in out and "nonzero" in out


def test_criterion_10_directional_derivative():
    with criterion(10, "directional derivative matches linearization on 20 random operators"):
        small = Bundle(("x",), ("u",), ("c",))
        big = Bundle(("x",), ("u",), ("c", "t"))
        t = big.param("t")
        t_coord = big.param_coord("t")
        rng = random.Random(SEED)

        def section():
            x = big.base_var(0)
            out = big.zero()
            for k in range(3):
                coeff = rng.randint(-2, 2)
                if coeff:
                    out = out + coeff * x**k
            if rng.random() < 0.5:
                out = out + big.param("c") * x
            return out

        for seed in range(20):
            f = PolyExpr.from_json(random_expr(small, seed, max_jet_order=2, max_degree=2).to_json(), big)
            s, h = section(), section()
            lhs = (
                substitute_section(f, [s + t * h])
                .partial(t_coord)
                .substitute({t_coord: big.zero()})
            )
            rhs = substitute_section(
                linearize(VectorOperator([f])).apply(VectorOperator([h]))[0], [s]
            )
            assert lhs == rhs


def test_criterion_11_cli_contract(fixtures_dir, tmp_path, capsys):
    with criterion(11, "CLI round-trip, exit codes and byte-identical reports"):
        # round-trip idempotence on every shipped session fixture
        for path in sorted(fixtures_dir.glob("*.jet")):
            session = parse(path.read_text())
            printed = print_session(session)
            assert parse(printed) == session
            assert print_session(parse(printed)) == printed

        # and on every expression inside the shipped claims file
        from jetcalc.dsl import parse_expression
        from jetcalc.expressions import Bundle as _Bundle
        from jetcalc.printing import poly_text

        claims = json.loads((fixtures_dir / "claims.json").read_text())
        for record in claims["claims"]:
            sig = _Bundle.from_json(record["signature"])
            for key in ("f", "g", "h", "theta", "lambda", "mu"):
                for text in record.get(key, ()):
                    e = parse_expression(text, sig)
                    assert parse_expression(poly_text(e), sig) == e

        intro_path = str(fixtures_dir / "intro.jet")

        # exit 0: clean computation
        assert main(["bracket", "--session", intro_path, "--left", "F", "--right", "G"]) == 0
        capsys.readouterr()

        # exit 0: passing verification
        assert main(["verify", "hess-sym", "--random", "3", "--seed", "1"]) == 0
        capsys.readouterr()

        # exit 1: a claim that fails its expectation
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "claims": [
                        {
                            "name": "wrong",
                            "kind": "symmetry",
                            "signature": {"base": ["x"], "fiber": ["u"], "params": []},
                            "f": ["u_x^2"],
                            "h": ["u"],
                            "theta": ["0"],
                            "expect": "zero",
                        }
                    ]
                }
            )
        )
        assert main(["check-symmetry", "--fixtures", str(bad)]) == 1
        capsys.readouterr()

        # exit 2: parse error with position, and usage errors
        broken = tmp_path / "broken.jet"
        broken.write_text("base x; fiber u; op F = [w];")
        assert main(["linearize", "--session", str(broken), "--op", "F"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        assert main(["linearize", "--session", intro_path, "--op", "MISSING"]) == 2
        capsys.readouterr()

        # byte-identical JSON reports for a fixed seed
        argv = ["verify", "prop3", "--random", "5", "--seed", "11", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
