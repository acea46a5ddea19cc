"""jetcalc benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout (stdlib only; jetcalc is imported from src/):

    python3 perfbench/run.py --workload suite-chains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a closed loop: one client, one op in flight, no threads, no
think time.  Every measurement runs in fresh worker processes started one at a
time, never concurrently.

--trace 0 prints the end-to-end metrics: setup_s (median over SETUP_SAMPLES
fresh processes of import, input generation and warm-up), ops_per_s, op_ms_p50,
op_ms_p90 and peak_rss_mb, plus failed_ratio and the output digest.  Times are
scaled to the reference speed described in worker.py; the times as measured
are printed beside them.
--trace 1 runs pass 0 untraced and then traced, each in its own process, and
prints the per-layer metrics and trace.overhead_ratio (traced over untraced
summed op time, both at the reference speed).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 means the run completed (``correct`` tells
whether every output was right); any other code means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("suite-chains", "suite-brackets", "cli-session")
REQUIRED = ("src/jetcalc/__init__.py", "fixtures/intro.jet", "fixtures/claims.json")
SETUP_SAMPLES = 6
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
TIME_LIMIT_S = 170
# (seed, corpus) kept out of all tuning, for checking later claims.
HELD_OUT = (1009, 1)


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = 0.0

    def start(self) -> None:
        """Open a workload's time budget."""
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, workload: str, mode: str) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(a.seed), "--corpus", str(a.corpus),
            "--seconds", str(a.seconds), "--mode", mode,
        ]
        env = dict(os.environ, PYTHONHASHSEED="0")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before the {mode} run of {workload}")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"the {mode} run of {workload} did not finish in time") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"the {mode} run of {workload} exited {proc.returncode}:\n{tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed(self, workload: str) -> tuple:
        before = SETUP_SAMPLES // 2
        setups = [self.worker(workload, "setup") for _ in range(before)]
        run = self.worker(workload, "timed")
        setups += [self.worker(workload, "setup") for _ in range(SETUP_SAMPLES - 1 - before)]
        lat, raw = run["latencies_ref_s"], run["latencies_s"]
        metrics = {
            "setup_s": statistics.median([r["setup_ref_s"] for r in setups + [run]]),
            "ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": statistics.median(lat) * 1000,
            "op_ms_p90": statistics.quantiles(lat, n=10)[8] * 1000,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        failures = [f for s in setups for f in s["failures"]] + run["failures"]
        attempted = run["ops"] + sum(r["warmup_ops"] for r in setups + [run])
        notes = [
            f"{run['ops']} ops in {run['passes']} passes, {run['wall_s']:.2f} s wall",
            f"as measured: setup_s {statistics.median(r['setup_s'] for r in setups + [run]):.6g},"
            f" ops_per_s {len(raw) / sum(raw):.6g}, op_ms_p50 {statistics.median(raw) * 1000:.6g},"
            f" op_ms_p90 {statistics.quantiles(raw, n=10)[8] * 1000:.6g}",
            f"digest {run['digest']} (reference: {run['reference']})",
        ]
        return metrics, dict(END_TO_END), attempted, failures, notes

    def traced(self, workload: str) -> tuple:
        base = self.worker(workload, "pass")
        run = self.worker(workload, "traced")
        metrics = dict(run["layers"])
        metrics["trace.overhead_ratio"] = sum(run["latencies_ref_s"]) / sum(base["latencies_ref_s"])
        failures = base["failures"] + run["failures"]
        if run["op_digests"] != base["op_digests"]:
            k = next(
                i for i in range(0, len(base["op_digests"]), 8)
                if run["op_digests"][i:i + 8] != base["op_digests"][i:i + 8]
            ) // 8
            failures.append([k, base["op_labels"][k], "traced output differs from untraced"])
        failures += [[-1, name, "still wrapped after restore"] for name in run["leftover_wrappers"]]
        attempted = base["ops"] + run["ops"] + base["warmup_ops"] + run["warmup_ops"]
        notes = [
            f"{run['ops']} ops traced; {run['patched']} names wrapped and restored",
            f"digest {run['digest']} (reference: {run['reference']})",
        ]
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        return metrics, units, attempted, failures, notes


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def meta() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
    }


def report(workload: str, metrics: dict, units: dict, attempted: int, failures: list, notes: list) -> None:
    print(f"== {workload}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':<46} {len(failures) / attempted:>14.6g} ratio ({len(failures)}/{attempted})")
    for note in notes:
        print(f"  {note}")
    for k, label, reason in failures[:5]:
        print(f"  FAILED op {k}: {label}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus", type=int, default=0,
        help="trial-structure corpus of the suite workloads; 1 is the held-out corpus",
    )
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a jetcalc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    print("meta: " + json.dumps(meta()))
    runner = Runner(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            runner.start()
            metrics, units, attempted, failures, notes = (
                runner.traced(name) if args.trace else runner.timed(name)
            )
            report(name, metrics, units, attempted, failures, notes)
            prefix = f"{name}." if args.workload == "all" else ""
            for key, value in metrics.items():
                result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
            result["attempted"] += attempted
            result["failed"] += len(failures)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
