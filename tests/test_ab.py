"""The summary and the run checks of tools/ab.py, on canned runs."""

import importlib.util
import os
import signal
import subprocess
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

METRICS = [("ops_per_s", "higher"), ("peak_rss_mb", "lower")]


def run(ops, rss, failed=0, digest="d0", reference="match"):
    return {"metrics": {"ops_per_s": ops, "peak_rss_mb": rss}, "attempted": 100, "failed": failed,
            "digest": digest, "reference": reference}


BEFORE = [run(10, 20), run(12, 21), run(11, 22), run(13, 20), run(9, 23)]
AFTER = [run(12, 20), run(12, 20.5), run(13, 22.5), run(12, 19), run(14, 22)]


def test_summary():
    (name, med_b, med_a, change, iqr, won_a, won_b), rss = ab.summary(METRICS, BEFORE, AFTER)
    assert (name, med_b, med_a, change) == ("ops_per_s", 11, 12, pytest.approx(1 / 11))
    # statistics.quantiles of 9..13 (exclusive method): 9.5 and 12.5.
    assert iqr == 3
    # Pair 2 ties and counts for neither side; pair 4 goes to before.
    assert (won_a, won_b) == (3, 1)
    assert rss[1:3] == (21, 20.5)
    # Lower is better: after won pairs 2, 4 and 5, before pair 3; pair 1 ties.
    assert rss[5:] == (3, 1)


def test_summary_of_one_pair_has_no_spread():
    rows = ab.summary(METRICS, BEFORE[:1], AFTER[:1])
    assert [r[4] for r in rows] == [0, 0]


def test_problems():
    assert ab.problems("c", BEFORE + AFTER) == []
    # A seed with no recorded digest ("none") is no problem by itself.
    assert ab.problems("c", [run(1, 1, reference="none")] * 2) == []
    bad = [run(1, 1), run(1, 1, failed=2), run(1, 1, digest="d1", reference="mismatch")]
    assert ab.problems("c", bad) == [
        "c: run 1 failed 2 of 100 ops",
        "c: run 2 digest differs from the recorded one",
        "c: the runs gave 2 different digests",
    ]


def test_parse_case():
    assert ab.parse_case("suite-chains:1") == ("suite-chains seed 1", ["--workload", "suite-chains", "--seed", "1"])
    assert ab.parse_case("suite-chains:1009:1") == (
        "suite-chains seed 1009 corpus 1",
        ["--workload", "suite-chains", "--seed", "1009", "--corpus", "1"],
    )
    for bad in ("suite-chains", "suite-chains:x", "a:1:2:3"):
        with pytest.raises(ValueError):
            ab.parse_case(bad)


def sigterm_run(monkeypatch, git) -> tuple:
    """Run ab.main with git recorded by git(calls, *args), while the first
    benchmark run sends SIGTERM to this process; (exit code, calls).  The
    SIGTERM handler in place before must be back afterwards."""
    calls = []
    monkeypatch.setattr(ab, "git", lambda *args: git(calls, *args))
    monkeypatch.setattr(ab, "run_once", lambda *args: os.kill(os.getpid(), signal.SIGTERM))

    def handler(signum, frame):
        raise AssertionError("SIGTERM reached the handler in place before")

    before = signal.signal(signal.SIGTERM, handler)
    try:
        with pytest.raises(SystemExit) as stop:
            ab.main(["HEAD", "suite-chains:1"])
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, before)
    return stop.value.code, calls


def recorded(calls, *args):
    # A prune is recorded with whether the temporary directory still exists.
    if args == ("worktree", "prune"):
        added = next(c for c in calls if c[:2] == ("worktree", "add"))
        args += (Path(added[3]).parent.exists(),)
    calls.append(args)
    return "abc1234"


def failing_removal(calls, *args):
    out = recorded(calls, *args)
    if args[:2] == ("worktree", "remove"):
        raise subprocess.CalledProcessError(128, ["git", *args])
    return out


def assert_cleaned_up(code, calls, err):
    """SIGTERM's exit code, no traceback, the worktree removed and then
    pruned once the temporary directory is gone."""
    assert code == 128 + signal.SIGTERM
    assert "Traceback" not in err
    added = [c for c in calls if c[:2] == ("worktree", "add")]
    assert len(added) == 1
    ref_dir = Path(added[0][3])
    removal = calls.index(("worktree", "remove", "--force", str(ref_dir)))
    assert calls[removal + 1:] == [("worktree", "prune", False)]
    assert not ref_dir.parent.exists()


def test_sigterm_removes_the_worktree(monkeypatch, capsys):
    code, calls = sigterm_run(monkeypatch, recorded)
    assert_cleaned_up(code, calls, capsys.readouterr().err)


def test_failed_worktree_removal_keeps_the_sigterm_exit(monkeypatch, capsys):
    # git cannot remove the worktree: its CalledProcessError must not replace
    # SIGTERM's exit, and the temporary directory still goes.
    code, calls = sigterm_run(monkeypatch, failing_removal)
    assert_cleaned_up(code, calls, capsys.readouterr().err)
