import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jetcalc
from jetcalc import Bundle, PolyExpr, VectorOperator, cli, identities
from jetcalc.cli import main
from jetcalc.dsl import MAX_NESTING, parse, print_session
from jetcalc.identities import IDENTITIES, OPERANDS
from jetcalc.multiindex import MAX_ORDER
from jetcalc.structures import MAX_JSON_NESTING

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

    def test_missing_session_file(self, tmp_path, capsys):
        path = tmp_path / "absent.jet"
        assert main(["linearize", "--session", str(path), "--op", "F"]) == 2
        assert capsys.readouterr().err == f"error: session file {path} does not exist\n"

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


def forced_failure(monkeypatch, check_name):
    """Make one check report failure while keeping its real residual."""
    check = getattr(identities, check_name)

    def failing(*args):
        res = check(*args)
        res.holds = False
        return res

    monkeypatch.setattr(identities, check_name, failing)


class TestExplicitFailure:
    """A failing verify --operands reports the suite's record, with the operands' JSON."""

    def test_named_operands(self, intro_session, monkeypatch, capsys):
        forced_failure(monkeypatch, "check_jacobi_identity")
        argv = ["verify", "jacobi", "--session", intro_session, "--operands", "F", "G", "H"]
        for fmt in ("text", "latex"):
            assert main([*argv, "--format", fmt]) == 1
            out = capsys.readouterr().out
            assert "trial 0: FAIL\n" in out
            assert "failures: 1\n" in out
        assert main([*argv, "--format", "json"]) == 1
        (record,) = json.loads(capsys.readouterr().out)["failures"]
        assert list(record) == ["trial", "seed", "inputs", "residual"]
        assert record["trial"] == 0
        assert record["seed"] is None
        session = parse(Path(intro_session).read_text(encoding="utf-8"))
        restored = [VectorOperator.from_json(record["inputs"][key]) for key in ("f", "g", "h")]
        assert restored == [session.operators[name] for name in ("F", "G", "H")]

    def test_commutation_lemma(self, intro_session, monkeypatch, capsys):
        forced_failure(monkeypatch, "check_commutation")
        argv = [
            "verify", "commutation-lemma", "--session", intro_session, "--operands", "F",
            "--zeta", "1", "--tau", "2", "--fiber", "1", "--format", "json",
        ]
        assert main(argv) == 1
        (record,) = json.loads(capsys.readouterr().out)["failures"]
        inputs = record["inputs"]
        assert list(inputs) == ["zeta", "tau", "fiber", "e", "signature"]
        assert (inputs["zeta"], inputs["tau"], inputs["fiber"]) == ([1], [2], 0)
        session = parse(Path(intro_session).read_text(encoding="utf-8"))
        e = PolyExpr.from_json(inputs["e"], Bundle.from_json(inputs["signature"]))
        assert e == session.operators["F"][0]


class TestClaims:
    @pytest.mark.parametrize(
        "command, needs",
        [("check-symmetry", "--f, --h and --theta"), ("check-aux", "--f, --g, --lambda and --mu")],
    )
    def test_neither_operands_nor_fixtures(self, command, needs, intro_session, capsys):
        code = main([command, "--session", intro_session])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {command} needs {needs} (or --fixtures)\n"

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

    SYMMETRY_CLAIM = {
        "kind": "symmetry",
        "signature": {"base": ["x"], "fiber": ["u"]},
        "f": ["u_xx"], "h": ["u_x"], "theta": ["0"],
        "expect": "zero",
    }

    @pytest.mark.parametrize(
        "claims, message",
        [
            ([], "no symmetry claims in the file"),
            ([{**SYMMETRY_CLAIM, "kind": "symetry"}], "unknown claim kind 'symetry'"),
            ([{**SYMMETRY_CLAIM, "kind": 5}], "unknown claim kind 5"),
            ([SYMMETRY_CLAIM, {**SYMMETRY_CLAIM, "kind": ["aux"]}], "unknown claim kind ['aux']"),
            ([{**SYMMETRY_CLAIM, "kind": "aux"}], "no symmetry claims in the file"),
            ([{k: v for k, v in SYMMETRY_CLAIM.items() if k != "kind"}], "missing field 'kind'"),
            ([{k: v for k, v in SYMMETRY_CLAIM.items() if k != "expect"}], "missing field 'expect'"),
        ],
    )
    def test_no_vacuous_claims_file(self, claims, message, tmp_path, capsys):
        # Every record's kind is checked before the kind filter, and a file
        # with no claim of the requested kind is an error, not "all match".
        path = tmp_path / "claims.json"
        path.write_text(json.dumps({"claims": claims}))
        code = main(["check-symmetry", "--fixtures", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: bad fixtures file {path}: {message}\n"


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
        return captured.err

    def test_rank_mismatch(self, tmp_path, capsys):
        session = tmp_path / "ranks.jet"
        session.write_text("base x; fiber u; op F = [u_x, u]; op G = [u];")
        self._assert_error(
            ["bracket", "--session", str(session), "--left", "F", "--right", "G"], capsys
        )

    def test_anomaly_rank_mismatch(self, tmp_path, capsys):
        # The same message as bracket and hessian, not an internal matrix shape.
        session = tmp_path / "ranks.jet"
        session.write_text("base x; fiber u v; op P = [u_x, v]; op Q = [u];")
        for argv in (["anomaly", "--f", "P", "--g", "Q"], ["bracket", "--left", "P", "--right", "Q"],
                     ["hessian", "--f", "P", "--g", "Q"]):
            err = self._assert_error([*argv, "--session", str(session)], capsys)
            assert err == "error: rank mismatch: 2 vs 1\n"

    def test_negative_probe_order(self, intro_session, capsys):
        self._assert_error(
            ["verify", "antihom", "--session", intro_session, "--operands", "F", "G",
             "--probe-order", "-1"],
            capsys,
        )

    def test_fiber_out_of_range(self, intro_session, capsys):
        # The message names the option and the 1-based value the user gave.
        for fiber in ("0", "2"):
            argv = ["verify", "commutation-lemma", "--session", intro_session, "--operands",
                    "F", "--zeta", "1", "--tau", "1", "--fiber", fiber]
            err = self._assert_error(argv, capsys)
            assert err == f"error: --fiber {fiber} is out of range 1..1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["commutation-lemma", "--operands", "X"], "operator 'X' is not defined in the session"),
            (["commutation-lemma", "--operands", "F", "--zeta", "1,x"],
             "verify commutation-lemma needs --zeta and --tau"),
            (["commutation-lemma", "--operands", "F", "--zeta", "1,x", "--tau", "2", "--fiber", "5"],
             "bad --zeta '1,x': invalid literal for int() with base 10: 'x'"),
            (["antihom", "--operands", "F", "X", "--probe-order", "99"],
             "operator 'X' is not defined in the session"),
        ],
    )
    def test_operand_error_precedence(self, argv, message, intro_session, capsys):
        # Of two faults, the earlier in this order is reported: operand count,
        # operand names, presence of --zeta and --tau, --zeta, --tau, --fiber,
        # then the probe-order bound.
        err = self._assert_error(["verify", *argv, "--session", intro_session], capsys)
        assert err == f"error: {message}\n"

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

    AUX_CLAIM = {
        "kind": "aux",
        "signature": {"base": ["x"], "fiber": ["u"]},
        "f": ["u_xx"], "g": ["u_x"], "lambda": ["0"], "mu": ["0"],
        "expect": "zero",
    }

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([{"name": "a"}], "'claims'"),
            ({"claims": {"a": 1}}, "'claims'"),
            ({"claims": [1]}, "'claims'"),
            ({"claims": [{**AUX_CLAIM, "signature": 5}]}, "'signature'"),
            ({"claims": [{**AUX_CLAIM, "f": 7}]}, "'f'"),
            ({"claims": [{**AUX_CLAIM, "g": [3]}]}, "'g'"),
            ({"claims": [{**AUX_CLAIM, "name": {"a": [1]}}]}, "field 'name' must be a string"),
        ],
    )
    def test_malformed_claims_file(self, doc, field, tmp_path, capsys):
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(doc))
        err = self._assert_error(["check-aux", "--fixtures", str(path)], capsys)
        assert field in err

    @pytest.mark.parametrize(
        "argv", [["linearize", "--op", "F", "--session"], ["check-aux", "--fixtures"]]
    )
    def test_unreadable_input_file(self, argv, tmp_path, capsys):
        # A directory exists but cannot be read as a file.
        self._assert_error([*argv, str(tmp_path)], capsys)


# {intro} and {claims} stand for the fixture paths.
DISPATCH_TABLE = [
    ["linearize", "--session", "{intro}", "--op", "F"],
    ["bracket", "--session", "{intro}", "--left", "F", "--right", "G", "--format", "json"],
    ["hessian", "--session", "{intro}", "--f", "F", "--g", "G", "--h", "G"],
    ["anomaly", "--session", "{intro}", "--f", "F", "--g", "G", "--format", "latex"],
    ["verify", "prop2", "--random", "2"],
    ["verify", "prop2", "--session", "{intro}", "--operands", "F", "G"],
    ["check-symmetry", "--fixtures", "{claims}"],
    ["check-aux", "--fixtures", "{claims}", "--format", "json"],
    ["section4"],
    ["linearize", "--session={intro}", "--op", "F"],
    ["linearize", "--sess", "{intro}", "--op", "F"],
    ["linearize", "--session", "{intro}", "--op", "F", "--bogus"],
    ["linearize", "--session", "{intro}", "--op", "F", "stray", "--bogus=1"],
    ["verify", "prop2", "stray", "--random", "2"],
    ["linearize", "--session", "{intro}"],
    ["bracket", "--left", "F"],
    ["linearize", "--session", "{intro}", "--op", "F", "--format", "xml"],
    ["verify", "no-such-identity"],
    ["linearize", "-h"],
    ["verify", "--help"],
    ["section4", "-h", "--bogus"],
    ["frobnicate", "--op", "F"],
    ["--session", "{intro}", "linearize", "--op", "F"],
    ["-h"],
    [],
]


class TestDispatch:
    """main hands the arguments after a command name to that command's own
    parser; every argv must still behave as under the full parser."""

    @staticmethod
    def full_parser(argv) -> int:
        try:
            args = cli.build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as e:
            return int(e.code or 0)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2

    @pytest.mark.parametrize("argv", DISPATCH_TABLE, ids=" ".join)
    def test_same_as_the_full_parser(self, argv, intro_session, claims_file, capsys):
        argv = [a.format(intro=intro_session, claims=claims_file) for a in argv]
        got = main(list(argv)), *capsys.readouterr()
        want = self.full_parser(list(argv)), *capsys.readouterr()
        assert got == want
        assert got[2] or got[1]

    def test_leftover_arguments_get_the_full_usage(self, intro_session, capsys):
        assert main(["linearize", "--session", intro_session, "--op", "F", "--bogus", "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jetcalc [-h] COMMAND ...\n")
        assert err.endswith("jetcalc: error: unrecognized arguments: --bogus x\n")


def console_env() -> dict:
    env = dict(os.environ)
    src = str(Path(jetcalc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_console(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run the console entry point, jetcalc.cli:main, in a fresh process."""
    entry = "import sys; from jetcalc.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", entry, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=console_env(), timeout=120,
    )


class TestDeepNesting:
    """Nesting that would exhaust the interpreter's recursion exits 2 with an
    error line, never a traceback."""

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
    def test_session_parentheses(self, tmp_path, depth):
        head = "base x; fiber u; op F = ["
        session = tmp_path / "nested.jet"
        session.write_text(head + "(" * depth + "u_x^2" + ")" * depth + "];")
        done = run_console("linearize", "--session", str(session), "--op", "F")
        if depth <= MAX_NESTING:
            assert (done.returncode, done.stdout, done.stderr) == (0, "linearization: 2*u_x*D_x\n", "")
        else:
            col = len(head) + depth
            message = f"error: line 1, col {col}: parentheses nested deeper than MAX_NESTING = {MAX_NESTING}\n"
            assert (done.returncode, done.stdout, done.stderr) == (2, "", message)

    def test_fixtures_file(self, tmp_path):
        claims = tmp_path / "deep.json"
        claims.write_text("[" * 1000 + "]" * 1000)
        done = run_console("check-aux", "--fixtures", str(claims))
        message = f"error: bad fixtures file {claims}: JSON nested too deeply\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message)

    @pytest.mark.parametrize("depth", [MAX_JSON_NESTING, MAX_JSON_NESTING + 1, 10_000])
    def test_fixtures_nesting_bound(self, tmp_path, capsys, depth):
        # The bound is jetcalc's own, so every Python version gives one answer.
        claims = tmp_path / "deep.json"
        claims.write_text("[" * depth + "]" * depth)
        assert main(["check-aux", "--fixtures", str(claims)]) == 2
        why = "JSON nested too deeply" if depth > MAX_JSON_NESTING else "a claims file must be an object"
        assert capsys.readouterr().err.startswith(f"error: bad fixtures file {claims}: {why}")


class TestProcessBoundary:
    """Output that cannot be written, and Ctrl-C, end the process with a
    documented exit code and no traceback."""

    def test_reader_closes_early(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "jetcalc.cli", "section4", "--format", "latex"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=console_env(),
        )
        proc.stdout.close()  # long before the command writes
        with proc.stderr:
            err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            done = run_console("section4", stdout=full)
        message = "error: cannot write output: [Errno 28] No space left on device\n"
        assert (done.returncode, done.stderr) == (2, message)

    def test_interrupt(self, fixtures_dir):
        # The child says when it enters main; the computation then runs for
        # seconds (about 3 s on a 2-core VM).
        entry = "import sys; from jetcalc.cli import main; print(flush=True); sys.exit(main())"
        argv = ["verify", "antihom", "--session", str(fixtures_dir / "deep.jet"), "--operands", "F", "G",
                "--probe-order", "12"]
        proc = subprocess.Popen(
            [sys.executable, "-c", entry, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=console_env(),
        )
        assert proc.stdout.readline() == "\n"
        time.sleep(0.2)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == (130, "", "")


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
        for identity, (_, inputs) in IDENTITIES.items():
            operands = [key for key in inputs if key in OPERANDS]
            argv = ["verify", identity, "--session", session,
                    "--operands", *["F", "G", "H"][: len(operands)]]
            if "zeta" in inputs:
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
