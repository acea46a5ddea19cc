"""Run the CI tier-1 legs on every locally installed Python interpreter.

For each pyenv interpreter, ``$PYENV_ROOT/versions/*/bin/python`` (``~/.pyenv``
when PYENV_ROOT is unset), this runs, from the repository root:

- tier-1: ``python -m pytest -q`` with ``src`` and a borrowed package
  directory on PYTHONPATH;
- the golden CLI transcript (``tests/test_cli_golden.py``), compared without
  pytest, so it runs even where pytest cannot;
- the start-up import guard: ``import jetcalc.cli`` must load neither
  ``dataclasses`` nor ``inspect``;
- on Python 3.12 and later, ``tools/coverage.py``: tier-1 again, under a
  line hook, which must leave no line of ``src/jetcalc`` unrun but the
  allowlisted ones.

The test packages (pytest, hypothesis) are borrowed from the first
interpreter that imports both; they are pure Python, so other versions can
import them too.  Nothing is installed.
An interpreter below the project's requires-python is skipped, and one that
cannot import the borrowed pytest is reported as not runnable, with the
reason.  Stdlib only:

    python3 tools/matrix.py

Exit code 0 when every leg that could run passed, 1 otherwise (also when no
interpreter has the test packages).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEG_TIMEOUT_S = 900

GOLDEN = """
import os, sys
sys.path.insert(0, "tests")
os.environ["COLUMNS"] = "80"
import test_cli_golden as t
sys.exit(t.transcript() != t.GOLDEN.read_text(encoding="utf-8"))
"""
VERSION = "import sys; print('%d.%d.%d' % sys.version_info[:3])"
PACKAGES = "import os, hypothesis, pytest; print(os.path.dirname(os.path.dirname(pytest.__file__)))"


def interpreters() -> list:
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = [p for p in (root / "versions").glob("*/bin/python") if p.is_file()]
    return sorted(found, key=lambda p: [int(k) for k in re.findall(r"\d+", p.parent.parent.name)])


def run(python, code_or_args, env=None) -> subprocess.CompletedProcess:
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else list(code_or_args)
    return subprocess.run([str(python), *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=LEG_TIMEOUT_S)


def version_of(python) -> tuple:
    done = run(python, VERSION)
    return tuple(map(int, done.stdout.split("."))) if done.returncode == 0 else None


def required_version() -> tuple:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text)
    return (int(m.group(1)), int(m.group(2))) if m else (0,)


def last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else "no output"


def legs(python, version: tuple, packages: str) -> list:
    """(leg, passed, summary) for each leg on one interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", packages])}
    out = []
    probe = run(python, "import pytest", env)
    if probe.returncode:
        out.append(("tier-1", None, f"not runnable: {last_line(probe.stderr)}"))
    else:
        done = run(python, ["-m", "pytest", "-q", "-p", "no:cacheprovider"], env)
        out.append(("tier-1", done.returncode == 0, last_line(done.stdout)))
        if version >= (3, 12):
            done = run(python, ["tools/coverage.py"], env)
            out.append(("coverage", done.returncode == 0, last_line(done.stdout)))
    env["PYTHONPATH"] = "src"
    done = run(python, GOLDEN, env)
    summary = "match" if done.returncode == 0 else last_line(done.stderr) if done.stderr.strip() else "differs"
    out.append(("golden", done.returncode == 0, summary))
    done = run(python, ["-X", "importtime", "-c", "import jetcalc.cli"], env)
    heavy = sorted(set(re.findall(r"\|\s+(dataclasses|inspect)\s*$", done.stderr, re.M)))
    ok = done.returncode == 0 and not heavy
    out.append(("import guard", ok, "clean" if ok else f"loads {', '.join(heavy) or 'nothing: import failed'}"))
    return out


def main() -> int:
    pythons = interpreters()
    for python in pythons:
        done = run(python, PACKAGES)
        if done.returncode == 0:
            packages = done.stdout.strip()
            break
    else:
        print("no pyenv interpreter has pytest and hypothesis to borrow")
        return 1
    print(f"test packages from {packages}")
    need, failed = required_version(), False
    for python in pythons:
        version = version_of(python)
        if version is None:
            print(f"{python}: does not start")
            continue
        name = "python " + ".".join(map(str, version))
        if version[:2] < need:
            print(f"{name}: skipped, below requires-python >={'.'.join(map(str, need))}")
            continue
        results = legs(python, version, packages)
        failed |= any(ok is False for _, ok, _ in results)
        print(f"{name}: " + "; ".join(f"{leg} {summary}" for leg, _, summary in results))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
