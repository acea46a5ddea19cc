import json
import random

import pytest

from jetcalc import cli
from jetcalc.cli import main
from jetcalc.dsl import parse, print_session
from jetcalc.identities import IDENTITIES
from jetcalc.multiindex import MAX_ORDER

INTRO = "fixtures/intro.jet"


@pytest.fixture
def intro_session(fixtures_dir):
    return str(fixtures_dir / "intro.jet")


@pytest.fixture
def claims_file(fixtures_dir):
    return str(fixtures_dir / "claims.json")


class TestComputationCommands:
    def test_bracket_golden(self, intro_session, capsys):
        code = main(["bracket", "--session", intro_session, "--left", "F", "--right", "G"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "bracket: 2*c*u_x\ncoordinate: 2*c*u_x\nagree: true\n"

    def test_linearize_golden(self, intro_session, capsys):
        code = main(["linearize", "--session", intro_session, "--op", "F"])
        assert code == 0
        assert capsys.readouterr().out == "linearization: 2*u_x*D_x\n"

    def test_anomaly_golden(self, intro_session, capsys):
        code = main(["anomaly", "--session", intro_session, "--f", "F", "--g", "G"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "commutator minus linearized bracket: (-2*u_xx - 2*c)*D_x\n"
            "hessian difference: (-2*u_xx - 2*c)*D_x\n"
            "equal: true\n"
        )

    def test_hessian_with_form(self, intro_session, capsys):
        code = main(
            ["hessian", "--session", intro_session, "--f", "F", "--g", "G", "--h", "U"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "operator: (2*u_xx + 2*c)*D_x\nform: [2*u_x*u_xx + 2*c*u_x]\n"

    def test_latex_format(self, intro_session, capsys):
        code = main(
            ["bracket", "--session", intro_session, "--left", "F", "--right", "G",
             "--format", "latex"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2\\,c\\,u_{x}" in out

    def test_section4_report_flags_deviation(self, capsys):
        code = main(["section4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full bracket: [-1, 1]\n" in out
        assert "full bracket (coordinate formula): [-1, 1]\n" in out
        assert "linear-part bracket: [0, 0]\n" in out
        assert "note:" in out and "nonzero" in out


class TestVerify:
    def test_random_suite_passes(self, capsys):
        code = main(["verify", "prop2", "--random", "5", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trial 0: pass" in out
        assert "trials: 5" in out
        assert out.rstrip().endswith("holds: true")

    def test_json_reports_byte_identical(self, capsys):
        argv = ["verify", "jacobi", "--random", "4", "--seed", "3", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["identity"] == "jacobi"
        assert report["seed"] == 3
        assert report["failures"] == []

    def test_explicit_operands(self, intro_session, capsys):
        code = main(
            ["verify", "hess-sym", "--session", intro_session, "--operands", "F", "G", "H"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "holds: true" in out

    def test_explicit_mu_lemma(self, intro_session, capsys):
        code = main(
            ["verify", "mu-lemma", "--session", intro_session, "--operands", "F", "G", "MU"]
        )
        capsys.readouterr()
        assert code == 0

    def test_explicit_commutation(self, intro_session, capsys):
        code = main(
            [
                "verify", "commutation-lemma", "--session", intro_session,
                "--operands", "F", "--zeta", "1", "--tau", "2",
            ]
        )
        capsys.readouterr()
        assert code == 0

    def test_commutation_requires_indices(self, intro_session, capsys):
        code = main(
            ["verify", "commutation-lemma", "--session", intro_session, "--operands", "F"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--zeta" in err

    def test_wrong_operand_count(self, intro_session, capsys):
        code = main(["verify", "jacobi", "--session", intro_session, "--operands", "F"])
        err = capsys.readouterr().err
        assert code == 2
        assert "3 operand names" in err


class TestClaims:
    def test_symmetry_fixtures(self, claims_file, capsys):
        code = main(["check-symmetry", "--fixtures", claims_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "all match: true" in out

    def test_aux_fixtures(self, claims_file, capsys):
        code = main(["check-aux", "--fixtures", claims_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "all match: true" in out

    def test_named_operands(self, intro_session, tmp_path, capsys):
        session = tmp_path / "sym.jet"
        session.write_text(
            "base x;\nfiber u;\nop F = [u_xx];\nop H = [u_x];\nop Z = [0];\n"
        )
        code = main(
            ["check-symmetry", "--session", str(session), "--f", "F", "--h", "H",
             "--theta", "Z"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "holds: true" in out

    def test_failing_claim_exits_one(self, tmp_path, capsys):
        bad = {
            "claims": [
                {
                    "name": "not-actually-zero",
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
        code = main(["check-symmetry", "--fixtures", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out


class TestUsageErrors:
    def test_parse_error_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.jet"
        broken.write_text("base x; fiber u; op F = [v];")
        code = main(["bracket", "--session", str(broken), "--left", "F", "--right", "F"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err and "col" in err

    def test_unknown_operator_name(self, intro_session, capsys):
        code = main(["linearize", "--session", intro_session, "--op", "NOPE"])
        err = capsys.readouterr().err
        assert code == 2
        assert "NOPE" in err

    def test_missing_session(self, capsys):
        code = main(["linearize", "--op", "F"])
        assert code == 2
        capsys.readouterr()

    def test_bad_subcommand(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
        capsys.readouterr()

    def test_missing_fixture_file(self, capsys):
        code = main(["check-aux", "--fixtures", "/nonexistent/claims.json"])
        assert code == 2
        capsys.readouterr()

    def _assert_error(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_rank_mismatch(self, tmp_path, capsys):
        session = tmp_path / "ranks.jet"
        session.write_text("base x; fiber u; op F = [u_x, u]; op G = [u];")
        self._assert_error(
            ["bracket", "--session", str(session), "--left", "F", "--right", "G"], capsys
        )

    def test_negative_probe_order(self, intro_session, capsys):
        self._assert_error(
            ["verify", "antihom", "--session", intro_session, "--operands", "F", "G",
             "--probe-order", "-1"],
            capsys,
        )

    def test_fiber_out_of_range(self, intro_session, capsys):
        self._assert_error(
            ["verify", "commutation-lemma", "--session", intro_session, "--operands", "F",
             "--zeta", "1", "--tau", "1", "--fiber", "0"],
            capsys,
        )

    def test_index_length_mismatch(self, intro_session, capsys):
        self._assert_error(
            ["verify", "commutation-lemma", "--session", intro_session, "--operands", "F",
             "--zeta", "1,0", "--tau", "1"],
            capsys,
        )

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_vacuous_suite(self, trials, capsys):
        self._assert_error(["verify", "prop2", "--random", trials], capsys)

    def test_non_decimal_digit(self, tmp_path, capsys):
        session = tmp_path / "digits.jet"
        session.write_text("base x; fiber u; op F = [u^²];")
        self._assert_error(["linearize", "--session", str(session), "--op", "F"], capsys)

    @pytest.mark.parametrize(
        "argv", [["linearize", "--op", "F", "--session"], ["check-aux", "--fixtures"]]
    )
    def test_unreadable_input_file(self, argv, tmp_path, capsys):
        # A directory exists but cannot be read as a file.
        self._assert_error([*argv, str(tmp_path)], capsys)


# Each boundary where an order enters from the command line; "K" stands for
# the order under test and "S" for the session file.
ORDER_BOUNDARIES = [
    ["verify", "antihom", "--session", "S", "--operands", "F", "G", "--probe-order", "K"],
    ["verify", "antihom", "--random", "1", "--probe-order", "K"],
    ["verify", "bracket-oracle", "--random", "1", "--max-order", "K"],
    ["verify", "commutation-lemma", "--session", "S", "--operands", "F", "--zeta", "K",
     "--tau", "1"],
    ["verify", "commutation-lemma", "--session", "S", "--operands", "F", "--zeta", "1",
     "--tau", "K"],
]


class TestOrderLimit:
    @staticmethod
    def _argv(template, session, order):
        return [{"S": session, "K": str(order)}.get(a, a) for a in template]

    @pytest.mark.parametrize("template", ORDER_BOUNDARIES)
    def test_at_the_limit(self, template, intro_session, capsys):
        code = main(self._argv(template, intro_session, MAX_ORDER))
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("holds: true\n")

    @pytest.mark.parametrize("template", ORDER_BOUNDARIES)
    def test_beyond_the_limit(self, template, intro_session, capsys):
        code = main(self._argv(template, intro_session, MAX_ORDER + 1))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"order {MAX_ORDER + 1} exceeds the limit {MAX_ORDER}" in captured.err

    def test_session_jet_order(self, tmp_path, capsys):
        session = tmp_path / "order.jet"
        session.write_text(f"base x; fiber u; op F = [u[{MAX_ORDER + 1}]];")
        code = main(["linearize", "--session", str(session), "--op", "F"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 1, col 26: jet order")


SUBCOMMANDS = (
    "linearize", "bracket", "hessian", "anomaly", "verify", "check-symmetry", "check-aux",
    "section4",
)


class TestRepeatedMain:
    """main builds its parser once per process; no call may see another's state."""

    @staticmethod
    def _units(session):
        computations = {
            "linearize": ["--op", "F"],
            "bracket": ["--left", "F", "--right", "G"],
            "hessian": ["--f", "F", "--g", "G", "--h", "U"],
            "anomaly": ["--f", "F", "--g", "G"],
        }
        units = [
            [[command, "--session", session, *opts, "--format", fmt]]
            for command, opts in computations.items()
            for fmt in ("text", "latex", "json")
        ]
        for identity, (_, operands) in IDENTITIES.items():
            argv = ["verify", identity, "--session", session,
                    "--operands", *["F", "G", "H"][: len(operands)]]
            if identity == "commutation-lemma":
                argv += ["--zeta", "1", "--tau", "2"]
            units.append([argv])
        # --random after --operands: the second parse must not keep the operands.
        units.append(
            [["verify", "jacobi", "--session", session, "--operands", "F", "G", "H"],
             ["verify", "jacobi", "--random", "1"]]
        )
        units += [
            [["bracket", "--session", session, "--left", "F"]],
            [["verify", "no-such-identity"]],
            [["linearize", "--session", session, "--op", "NOPE"]],
            [["--help"]],
        ]
        units += [[[command, "--help"]] for command in SUBCOMMANDS]
        return units

    @staticmethod
    def _run(sequence, capsys):
        results = []
        for argv in sequence:
            code = main(list(argv))
            captured = capsys.readouterr()
            results.append((argv, code, captured.out, captured.err))
        return results

    def test_cached_parser_matches_a_fresh_parser(self, intro_session, monkeypatch, capsys):
        rng = random.Random(11)
        units = self._units(intro_session)
        sequence = [
            argv for _ in range(2) for unit in rng.sample(units, len(units)) for argv in unit
        ]

        builds = []
        build_parser = cli.build_parser

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        cached = self._run(sequence, capsys)
        assert len(builds) == 1

        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = self._run(sequence, capsys)
        assert cached == fresh
        assert {code for _, code, _, _ in cached} == {0, 2}
        random_runs = [out for argv, _, out, _ in cached if "--random" in argv]
        assert random_runs == 2 * [
            "identity: jacobi\nseed: 0\ntrial 0: pass\ntrials: 1\nfailures: 0\nholds: true\n"
        ]
        assert all(out.startswith("usage: jetcalc") for argv, _, out, _ in cached
                   if argv[-1] == "--help")


class TestRoundTrip:
    def test_all_shipped_fixtures_roundtrip(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.jet")):
            session = parse(path.read_text())
            printed = print_session(session)
            assert parse(printed) == session
            assert print_session(parse(printed)) == printed
