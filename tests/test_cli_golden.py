"""Golden transcript of the jetcalc command line.

Every command below runs in one process, from the repository root, and its
exit code and exact stdout are compared with tests/golden/cli.txt.  This pins
JSON key order, LaTeX output, every text label and the --help text of every
command, formatted for an 80-column terminal.  To rewrite the golden file
after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

from jetcalc.cli import main
from jetcalc.identities import IDENTITIES, OPERANDS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"
INTRO = "fixtures/intro.jet"
PLANE = "tests/golden/plane.jet"
CLAIMS = "fixtures/claims.json"
SUBCOMMANDS = ("linearize", "bracket", "hessian", "anomaly", "verify", "check-symmetry",
               "check-aux", "section4")


def commands() -> list:
    intro = [
        ["linearize", "--op", "F"],
        ["bracket", "--left", "F", "--right", "G"],
        ["hessian", "--f", "F", "--g", "G"],
        ["hessian", "--f", "F", "--g", "G", "--h", "U"],
        ["anomaly", "--f", "F", "--g", "G"],
        ["check-symmetry", "--f", "F", "--h", "G", "--theta", "U"],
        ["check-aux", "--f", "F", "--g", "G", "--lambda", "U", "--mu", "MU"],
    ]
    for identity, (_, inputs) in IDENTITIES.items():
        operands = [key for key in inputs if key in OPERANDS]
        argv = ["verify", identity, "--operands", *["F", "G", "H"][: len(operands)]]
        if "zeta" in inputs:
            argv += ["--zeta", "1", "--tau", "2"]
        intro.append(argv)
    plane = [
        ["linearize", "--op", "P"],
        ["bracket", "--left", "P", "--right", "Q"],
        ["hessian", "--f", "P", "--g", "Q", "--h", "R"],
        ["anomaly", "--f", "P", "--g", "Q"],
    ]
    standalone = [
        ["section4"],
        ["check-symmetry", "--fixtures", CLAIMS],
        ["check-aux", "--fixtures", CLAIMS],
        ["verify", "prop2", "--random", "2", "--seed", "3"],
    ]
    argvs = (
        [[*a, "--session", INTRO] for a in intro]
        + [[*a, "--session", PLANE] for a in plane]
        + standalone
    )
    helps = [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]
    return [[*a, "--format", fmt] for a in argvs for fmt in ("text", "latex", "json")] + helps


def transcript() -> str:
    blocks = []
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        blocks.append(f"$ jetcalc {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "\n".join(blocks)


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(transcript(), encoding="utf-8")
