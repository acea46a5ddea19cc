"""List each executable line of src/jetcalc that the tier-1 tests never run.

    python3.12 tools/coverage.py

Runs tier-1 (``pytest -q`` from the repository root, with ``src`` first on
the import path and on PYTHONPATH, as the tier-1 command sets it) in this
process under a ``sys.monitoring`` line hook, which needs Python 3.12 or
later.  The executable lines of a module are the lines of its compiled code
objects.  Each hook call records its line and disables itself at that
location, so a line costs one call however often it runs.

A few lines run only in a child process that a test starts, where an
in-process hook cannot see them.  They are listed in coverage_allowlist.txt
next to this file, one ``MODULE:LINE TEST REASON`` entry a line, TEST being
the name of the ``TestProcessBoundary`` test in tests/test_cli.py that runs
it.  An entry holds only when that test passed in the same run and its line
is executable and never ran in process.

Prints each never-run line that is not allowlisted, and each entry that does
not hold.  Exit code 0 when there are none and tier-1 passed, 1 otherwise,
and 2 on a Python without sys.monitoring.  Stdlib only, apart from the
test packages that tier-1 itself needs; no options.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jetcalc"
ALLOWLIST = Path(__file__).resolve().parent / "coverage_allowlist.txt"
BOUNDARY = "tests/test_cli.py::TestProcessBoundary::"


def executable_lines(source: str, name: str) -> set:
    """The line numbers of every code object compiled from one module."""
    code = [compile(source, name, "exec")]
    lines = set()
    while code:
        co = code.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        code.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def read_allowlist() -> dict:
    """(module, line) -> (test, reason) of each entry of the allowlist."""
    entries = {}
    for text in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if text.strip() and not text.startswith("#"):
            where, test, reason = text.split(maxsplit=2)
            module, line = where.split(":")
            entries[module, int(line)] = (test, reason)
    return entries


class Passed:
    """A pytest plugin that records the node ids of the tests that passed."""

    def __init__(self):
        self.ids = set()

    def pytest_runtest_logreport(self, report):
        if report.when == "call" and report.passed:
            self.ids.add(report.nodeid)


def run_tier1() -> tuple:
    """(pytest exit code, passed node ids, {file name: lines run}) of one
    in-process tier-1 run under the line hook."""
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    prefix = str(SRC) + os.sep
    ran: dict = {}
    mine: dict = {}  # co_filename -> its set in ran, or None outside src/jetcalc

    def on_line(code, line):
        filename = code.co_filename
        lines = mine.get(filename, False)
        if lines is False:
            lines = mine[filename] = (ran.setdefault(Path(filename).name, set())
                                      if os.path.realpath(filename).startswith(prefix) else None)
        if lines is not None:
            lines.add(line)
        return mon.DISABLE

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    mon.use_tool_id(tool, "jetcalc tier-1 coverage")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        import pytest

        passed = Passed()
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                           plugins=[passed])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return int(code), passed.ids, ran


def problems(sources: dict, ran: dict, allow: dict, passed: set) -> list:
    """One line for each executable line of sources ({module: text}) that is
    not in ran ({module: lines run}) and has no entry in allow, and for each
    entry of allow that does not hold, given the node ids of the tests that
    passed."""
    executable = {module: executable_lines(source, module) for module, source in sources.items()}
    out = []
    for (module, line), (test, _) in sorted(allow.items()):
        if module not in sources:
            out.append(f"allowlist: {module} is no module of src/jetcalc")
        elif line not in executable[module]:
            out.append(f"allowlist: {module}:{line} is not an executable line")
        elif line in ran.get(module, ()):
            out.append(f"allowlist: {module}:{line} runs in process, so it needs no entry")
        elif BOUNDARY + test not in passed:
            out.append(f"allowlist: {module}:{line} names {BOUNDARY}{test}, which did not pass")
    for module, lines in sorted(executable.items()):
        text = sources[module].splitlines()
        for line in sorted(lines - ran.get(module, set())):
            if (module, line) not in allow:
                out.append(f"src/jetcalc/{module}:{line}: never run: {text[line - 1].strip()}")
    return out


def main() -> int:
    if not hasattr(sys, "monitoring"):
        print(f"tools/coverage.py needs sys.monitoring, new in Python 3.12; this is {sys.version.split()[0]}")
        return 2
    allow = read_allowlist()
    code, passed, ran = run_tier1()
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    found = problems(sources, ran, allow, passed)
    print("", *found, sep="\n")
    print(f"tools/coverage.py: {len(found)} problems, {len(allow)} allowlisted lines of src/jetcalc")
    if code:
        print(f"tier-1 failed (pytest exit code {code})")
    return 1 if found or code else 0


if __name__ == "__main__":
    sys.exit(main())
