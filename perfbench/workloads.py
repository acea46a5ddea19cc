"""The benchmark's workloads: seeded op lists, their expected outputs and checks.

An op is one unit of user-visible work: one suite trial, or one CLI command.
Each op is an ``Op(label, run, check)``: ``run()`` does the work through
jetcalc's public API and returns its raw output, and ``check(raw)`` returns
``(canonical_text, error)`` where ``error`` is None when the output is right.

Jetcalc functions are looked up through their modules at call time, never
bound here, so that the traced run sees its wrappers and nothing else does.

Inputs.  The structures of the inputs (suite trials, session operators) come
from a fixed corpus (``--corpus``, default 0), because one op's cost is
heavy-tailed: on the order-3 regime one antihom trial takes 1 ms to 2 s, so
the hundred trials a run can afford would make throughput depend on which
trials the seed drew.  The workload seed picks the op order and, per pass, an
integer scale of the coefficient pool.  Scaling every coefficient by one
integer scales each intermediate of these multilinear computations
uniformly, so op ``k`` costs the same in every pass while its inputs, and so
any cross-call memo key, are new in each pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from jetcalc import calculus, cli, dsl, expressions, identities

WORKLOADS = ("suite-chains", "suite-brackets", "cli-session")

BASE_POOL = (-2, -1, 0, 1, 2)
SUITE_REGIME = {"max_jet_order": 3, "max_degree": 3, "probe_order": 4}
WARMUP_REGIME = {"max_jet_order": 2, "max_degree": 2, "probe_order": 2}
CHAINS_TRIALS = 150
BRACKET_SUITES = ("jacobi", "prop3", "prop2", "mu-lemma", "hess-sym", "bracket-oracle")
BRACKET_TRIALS = 25
CLI_SESSIONS = 20
SCALES = 29  # distinct coefficient scales 2..30, one per pass

FORMATS = ("text", "latex", "json")
# (identity, operand count) for every identity `jetcalc verify` accepts.
VERIFY_OPERANDS = (
    ("hess-sym", 3),
    ("prop2", 3),
    ("prop3", 3),
    ("jacobi", 3),
    ("antihom", 2),
    ("commutation-lemma", 1),
    ("mu-lemma", 3),
    ("bracket-oracle", 2),
)
# Commands whose output carries a verdict, and the key that holds it.
VERDICT_KEYS = {
    "bracket": "agree",
    "anomaly": "equal",
    "verify": "holds",
    "check-symmetry": "all match",
    "check-aux": "all match",
}
INTRO = "fixtures/intro.jet"
CLAIMS = "fixtures/claims.json"


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


# -- suite ops -----------------------------------------------------------------


def expected_report(identity: str, seed: int, pool, regime: dict = SUITE_REGIME) -> dict:
    """The report of a one-trial suite run in which the identity holds.

    The paper's identities hold, so this is the independent reference; the
    key order matters because reports are compared byte for byte.
    """
    return {
        "identity": identity,
        "trials": 1,
        "seed": seed,
        "failures": [],
        "holds": True,
        "regime": {
            "n": [1, 2],
            "r": [1, 2],
            "max_jet_order": regime["max_jet_order"],
            "max_degree": regime["max_degree"],
            "coeff_pool": [str(c) for c in pool],
        },
    }


def check_suite_report(report, expected: dict) -> Optional[str]:
    """None when the report is a real pass identical to the expected bytes."""
    if not isinstance(report, dict):
        return f"report is a {type(report).__name__}, not a dict"
    trials = report.get("trials")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        return f"vacuous report: trials = {trials!r}"
    if report.get("holds") is not True:
        return f"holds = {report.get('holds')!r}"
    if report.get("failures") != []:
        return f"failures = {report.get('failures')!r}"
    if json.dumps(report) != json.dumps(expected):
        return "report differs from the expected bytes"
    return None


def suite_op(identity: str, seed: int, scale: int, regime: dict = SUITE_REGIME) -> Op:
    pool = [scale * c for c in BASE_POOL]
    expected = expected_report(identity, seed, pool, regime)

    def run():
        return identities.run_random_suite(
            identity, trials=1, seed=seed, coeff_pool=pool, **regime
        )

    def check(report):
        return json.dumps(report), check_suite_report(report, expected)

    return Op(f"{identity} seed={seed} scale={scale}", run, check)


# -- CLI ops -------------------------------------------------------------------


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def check_cli_output(argv: list, code, stdout: str) -> Optional[str]:
    """None when the command exited 0 and printed the expected verdict lines."""
    if code != 0:
        return f"exit code {code}"
    if not stdout.strip():
        return "no output"
    command = argv[0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "json":
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as e:
            return f"output is not JSON: {e}"
        key = VERDICT_KEYS.get(command)
        if key is not None and doc.get(key.replace(" ", "_")) is not True:
            return f"{key} is not true"
        return None
    lines = stdout.splitlines()
    key = VERDICT_KEYS.get(command)
    if key is not None and f"{key}: true" not in lines:
        return f"missing '{key}: true'"
    if command == "verify" and not ("trials: 1" in lines and "failures: 0" in lines):
        return "verify did not report one trial and no failures"
    return None


def cli_op(argv: list) -> Op:
    def run():
        return run_cli(argv)

    def check(raw):
        code, stdout = raw
        return f"{code}\n{stdout}", check_cli_output(argv, code, stdout)

    return Op("jetcalc " + " ".join(argv), run, check)


def session_commands(path: str, rng: random.Random, n: int, r: int) -> list:
    """The per-session command list: four computations in every format, then
    `verify` on named operands for every identity."""
    cmds = []
    for fmt in FORMATS:
        tail = ["--session", path, "--format", fmt]
        cmds.append(["linearize", "--op", "F", *tail])
        cmds.append(["bracket", "--left", "F", "--right", "G", *tail])
        cmds.append(["hessian", "--f", "F", "--g", "G", "--h", "H", *tail])
        cmds.append(["anomaly", "--f", "F", "--g", "G", *tail])
    for identity, count in VERIFY_OPERANDS:
        cmd = ["verify", identity, "--session", path, "--operands", *"FGH"[:count]]
        if identity == "commutation-lemma":
            choices = expressions.indices_up_to(n, 2)
            zeta, tau = rng.choice(choices), rng.choice(choices)
            cmd += [
                "--zeta", ",".join(map(str, zeta)),
                "--tau", ",".join(map(str, tau)),
                "--fiber", str(rng.randrange(r) + 1),
            ]
        cmds.append(cmd)
    return cmds


def fixture_commands() -> list:
    cmds = session_commands(INTRO, random.Random(0), 1, 1)
    for fmt in ("text", "json"):
        cmds.append(["check-symmetry", "--fixtures", CLAIMS, "--format", fmt])
        cmds.append(["check-aux", "--fixtures", CLAIMS, "--format", fmt])
    for fmt in FORMATS:
        cmds.append(["section4", "--format", fmt])
    return cmds


def write_session(path: Path, n: int, r: int, seeds: list, scale: int) -> None:
    """A seeded session in the default regime: order <= 2, degree <= 2, n base
    and r fiber variables, one parameter, operators F, G and H."""
    bundle = expressions.Bundle(("x", "y")[:n], ("u", "v")[:r], ("c",))
    ops = {
        name: calculus.random_vector_operator(
            bundle, seed, max_jet_order=2, max_degree=2,
            coeff_pool=[scale * c for c in BASE_POOL], max_terms=4,
        )
        for name, seed in zip("FGH", seeds)
    }
    path.write_text(dsl.print_session(dsl.SessionFile(bundle, ops)))


# -- workloads -----------------------------------------------------------------


class Workload:
    """One workload's ops for a given seed and corpus.

    Every pass runs the same op structures in the same order; pass ``p``
    scales all coefficients by ``scale(p)``, so op ``k`` costs the same in
    every pass while its inputs are new.  ``warmup_ops()`` is a small fixed
    list, the same for every seed, run during set-up so that lazy imports and
    first-call costs are paid before timing.
    """

    def __init__(self, name: str, seed: int, corpus: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")
        self.name, self.corpus, self.workdir = name, corpus, workdir
        if name == "suite-chains":
            self._trials = [("antihom", k) for k in range(CHAINS_TRIALS)]
        elif name == "suite-brackets":
            self._trials = [(i, k) for k in range(BRACKET_TRIALS) for i in BRACKET_SUITES]
        else:
            shapes = random.Random(f"{name}:corpus:{corpus}")
            self._sessions = [
                (shapes.choice((1, 2)), shapes.choice((1, 2)),
                 [shapes.randrange(2**32) for _ in "FGH"])
                for _ in range(CLI_SESSIONS)
            ]
            self._commands = [(None, c) for c in fixture_commands()]
            for s, (n, r, _) in enumerate(self._sessions):
                self._commands += [(s, c) for c in session_commands("{}", shapes, n, r)]
        rng = random.Random(f"{name}:{seed}")
        self._scale0 = rng.randrange(SCALES)
        rng.shuffle(self._trials if name != "cli-session" else self._commands)

    def _trial_seed(self, k: int) -> int:
        return self.corpus * 1_000_000 + k

    def scale(self, p: int) -> int:
        return 2 + (self._scale0 + p) % SCALES

    def pass_ops(self, p: int) -> list:
        scale = self.scale(p)
        if self.name != "cli-session":
            return [suite_op(i, self._trial_seed(k), scale) for i, k in self._trials]
        paths = []
        for s, (n, r, seeds) in enumerate(self._sessions):
            path = self.workdir / f"p{p}s{s}.jet"
            write_session(path, n, r, seeds, scale)
            paths.append(path.as_posix())
        return [
            cli_op(cmd if s is None else [a.replace("{}", paths[s]) for a in cmd])
            for s, cmd in self._commands
        ]

    def warmup_ops(self) -> list:
        if self.name == "cli-session":
            return [cli_op(c) for c in fixture_commands()]
        suites = ("antihom",) if self.name == "suite-chains" else BRACKET_SUITES
        return [suite_op(i, 0, 1, WARMUP_REGIME) for i in suites]
