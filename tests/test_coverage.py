"""The checks of tools/coverage.py, on small source texts, and its allowlist."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("coverage_tool", ROOT / "tools" / "coverage.py")
coverage = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(coverage)

SOURCE = '''def f(x):
    if x:
        return 1

    return 2
'''
TEST = "test_full_device"
PASSED = {coverage.BOUNDARY + TEST}


def ran_all_but(*lines) -> dict:
    return {"m.py": coverage.executable_lines(SOURCE, "m.py") - set(lines)}


def test_executable_lines_are_the_lines_of_the_code_objects():
    assert coverage.executable_lines(SOURCE, "m.py") >= {1, 2, 3, 5}
    assert 4 not in coverage.executable_lines(SOURCE, "m.py")


def test_a_planted_unreached_line_is_reported():
    assert coverage.problems({"m.py": SOURCE}, ran_all_but(), {}, set()) == []
    assert coverage.problems({"m.py": SOURCE}, ran_all_but(3), {}, set()) == [
        "src/jetcalc/m.py:3: never run: return 1"
    ]


@pytest.mark.parametrize("entry, ran, passed, problem", [
    (("m.py", 3), ran_all_but(3), PASSED, None),
    (("m.py", 3), ran_all_but(3), set(), f"allowlist: m.py:3 names {coverage.BOUNDARY}{TEST}, which did not pass"),
    (("m.py", 3), ran_all_but(), PASSED, "allowlist: m.py:3 runs in process, so it needs no entry"),
    (("m.py", 4), ran_all_but(), PASSED, "allowlist: m.py:4 is not an executable line"),
    (("n.py", 3), ran_all_but(), PASSED, "allowlist: n.py is no module of src/jetcalc"),
], ids=["holds", "test did not pass", "runs in process", "not executable", "no module"])
def test_an_allowlist_entry_holds_only_for_a_line_run_in_a_child(entry, ran, passed, problem):
    found = coverage.problems({"m.py": SOURCE}, ran, {entry: (TEST, "a reason")}, passed)
    assert found == ([problem] if problem else [])


def test_the_allowlist_names_process_boundary_tests_and_executable_lines():
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    boundary = next(node for node in tree.body if getattr(node, "name", None) == "TestProcessBoundary")
    tests = {node.name for node in boundary.body if isinstance(node, ast.FunctionDef)}
    allow = coverage.read_allowlist()
    assert allow
    for (module, line), (test, reason) in allow.items():
        source = (ROOT / "src" / "jetcalc" / module).read_text(encoding="utf-8")
        assert module == "cli.py" and test in tests and reason
        assert line in coverage.executable_lines(source, module)


def test_it_needs_sys_monitoring(monkeypatch, capsys):
    monkeypatch.delattr(sys, "monitoring", raising=False)
    assert coverage.main() == 2
    assert "needs sys.monitoring" in capsys.readouterr().out
