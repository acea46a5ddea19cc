"""Benchmark a git ref against the working tree in alternating pairs.

    python3 tools/ab.py REF CASE [CASE ...]

A CASE is WORKLOAD:SEED or WORKLOAD:SEED:CORPUS, for example suite-chains:1
or suite-chains:1009:1 (the held-out seed and corpus).  REF is checked out
with ``git worktree add`` into a temporary directory, which is removed
afterwards, also when SIGTERM stops the tool (exit 143, no traceback, even
if ``git worktree remove`` fails; ``git worktree prune`` then drops its
record).  For each case, each of PAIRS (10) pairs runs ``perfbench/run.py
--trace 0`` once on each side, at run.py's own run length, one run after the
other: the ref first in odd pairs, the working tree first in even ones, so a
drift in the machine's speed falls on both sides alike.  Both sides keep
their bytecode under one fresh PYTHONPYCACHEPREFIX in the same directory.

Writes BENCH_before.json (the ref) and BENCH_after.json (the working tree) at
the root of the working tree, then prints, per case and end-to-end metric of
BENCHMARK.json, the median of each side, the change, the ref's interquartile
range and the number of pairs each side won.  Exit code 1 when a run failed
an op, or a digest differs from the recorded one or between the runs of a
case; 2 when a run could not be made; 0 otherwise.
Stdlib only; run from anywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
DIGEST = re.compile(r"^\s*digest (\w+) \(reference: (\w+)\)$", re.M)
COMMAND = (
    "python3 perfbench/run.py <args>, one run per line, in pairs with the other side;"
    " odd pairs run the ref first, even pairs the working tree first"
)


def parse_case(text: str) -> tuple:
    """(name, run.py arguments) of a WORKLOAD:SEED[:CORPUS] case."""
    parts = text.split(":")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts[1:]):
        raise ValueError(f"bad case {text!r}: expected WORKLOAD:SEED or WORKLOAD:SEED:CORPUS")
    name = f"{parts[0]} seed {parts[1]}"
    args = ["--workload", parts[0], "--seed", parts[1]]
    if len(parts) == 3:
        name += f" corpus {parts[2]}"
        args += ["--corpus", parts[2]]
    return name, args


def run_once(checkout: Path, args: list, env: dict) -> dict:
    """One perfbench run in checkout, as a BENCH_*.json run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--trace", "0"], cwd=checkout, capture_output=True, text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py {' '.join(args)} in {checkout} exited {proc.returncode}:\n"
                           + proc.stderr.strip())
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest, reference = DIGEST.search(proc.stdout).groups()
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest,
        "reference": reference,
    }


def summary(metrics: list, before: list, after: list) -> list:
    """One row per (name, better) metric: (name, median before, median after,
    relative change, IQR of before, pairs after won, pairs before won).  Run k
    of before and of after form pair k; a tie counts for neither side."""
    rows = []
    for name, better in metrics:
        b = [r["metrics"][name] for r in before]
        a = [r["metrics"][name] for r in after]
        sign = 1 if better == "higher" else -1
        quartiles = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0], b[0], b[0]]
        med_b, med_a = statistics.median(b), statistics.median(a)
        rows.append((
            name, med_b, med_a, (med_a - med_b) / med_b if med_b else 0.0, quartiles[2] - quartiles[0],
            sum(sign * (y - x) > 0 for x, y in zip(b, a)), sum(sign * (x - y) > 0 for x, y in zip(b, a)),
        ))
    return rows


def problems(case: str, runs: list) -> list:
    """What is wrong with a case's runs: failed ops, a digest that differs from
    the one recorded in perfbench/digests.json, or from the other runs'."""
    out = [f"{case}: run {k} failed {r['failed']} of {r['attempted']} ops" for k, r in enumerate(runs) if r["failed"]]
    out += [f"{case}: run {k} digest differs from the recorded one" for k, r in enumerate(runs)
            if r["reference"] == "mismatch"]
    if len({r["digest"] for r in runs}) > 1:
        out.append(f"{case}: the runs gave {len({r['digest'] for r in runs})} different digests")
    return out


def bench_file(commit: str, cases: dict) -> dict:
    return {
        "commit": commit,
        "python": platform.python_version(),
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "command": COMMAND,
        "workloads": cases,
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _terminate(signum, frame):
    """Turn SIGTERM into SystemExit, so that finally blocks run."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref of the before side")
    parser.add_argument("cases", nargs="+", metavar="CASE", help="WORKLOAD:SEED or WORKLOAD:SEED:CORPUS")
    args = parser.parse_args(argv)
    try:
        cases = [parse_case(c) for c in args.cases]
    except ValueError as e:
        parser.error(str(e))
    metrics = [(m["name"], m["better"]) for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    commit, head = git("rev-parse", "--short", args.ref), git("rev-parse", "--short", "HEAD")
    tmp = Path(tempfile.mkdtemp(prefix="jetcalc-ab-"))
    ref_dir = tmp / "ref"
    # Both sides write and read bytecode under one fresh prefix, so neither
    # starts with compiled files the other lacks: compiling moves setup_s
    # and peak_rss_mb.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    sides = {"before": {}, "after": {}}
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        git("worktree", "add", "--detach", str(ref_dir), commit)
        for name, case_args in cases:
            for side in sides.values():
                side[name] = {"args": " ".join(case_args), "runs": []}
            for k in range(1, PAIRS + 1):
                order = (("before", ref_dir), ("after", ROOT))
                for side, checkout in order if k % 2 else order[::-1]:
                    sides[side][name]["runs"].append(run_once(checkout, case_args, env))
                print(f"{name}: pair {k} of {PAIRS} done", file=sys.stderr)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)
        # A failed removal must not replace the exit under way (SIGTERM's
        # SystemExit, say): the directory goes with tmp, and prune then drops
        # the worktree's record.
        with contextlib.suppress(subprocess.CalledProcessError):
            git("worktree", "remove", "--force", str(ref_dir))
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(subprocess.CalledProcessError):
            git("worktree", "prune")
    for side, commit_name in (("before", commit), ("after", f"working tree on {head}")):
        text = json.dumps(bench_file(commit_name, sides[side]), indent=1) + "\n"
        (ROOT / f"BENCH_{side}.json").write_text(text)
    found = []
    for name, _ in cases:
        before, after = sides["before"][name]["runs"], sides["after"][name]["runs"]
        print(f"== {name} ({len(before)} pairs; before {commit}, after the working tree)")
        print(f"  {'metric':<14}{'before':>12}{'after':>12}{'change':>9}{'IQR before':>12}  pairs won after/before")
        for metric, med_b, med_a, change, iqr, won_a, won_b in summary(metrics, before, after):
            print(f"  {metric:<14}{med_b:>12.5g}{med_a:>12.5g}{change:>+9.2%}{iqr:>12.3g}  {won_a}/{won_b}")
        found += problems(name, before + after)
    for line in found:
        print(f"FAILED {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
