"""One fresh benchmark process: set up a workload, run it, print one JSON line.

Run from the root of a checkout; ``run.py`` starts it, one process at a time.

Modes:
  setup   import, input generation and warm-up only; reports setup_s
  timed   whole passes until --seconds have passed; reports every op latency
  pass    exactly pass 0, untraced; the base of the tracing overhead
  traced  exactly pass 0 with the tracer installed; reports per-layer metrics

Reference speed.  A shared virtual machine can change speed by 1.7x for tens
of seconds at a time, whatever runs on it (on a 2-vCPU Xeon VM a fixed loop
swung between 6.4 and 11 ms).  So the worker also times a fixed calibration
loop, every CAL_EVERY_S between ops and around set-up, and reports each time
both as measured and scaled to a reference machine on which the loop takes
REF_CAL_S: scaled = measured * REF_CAL_S / (median of the nearest
calibration samples).  A change to jetcalc moves the
scaled times exactly as it moves the measured ones; a change of host speed
moves both the op and its calibration samples, and cancels.
"""

import time

clock = time.perf_counter
CAL_LOOPS = 2000
REF_CAL_S = 0.001
CAL_EVERY_S = 0.02
CAL_WINDOW = 2  # samples on each side of an op


def calibration_loop() -> dict:
    d = {}
    for i in range(CAL_LOOPS):
        d[(i, i % 7)] = d.get((i % 100, 1), 0) + i
    return d


def calibrate() -> float:
    t = clock()
    calibration_loop()
    return clock() - t


SETUP_CAL = [calibrate() for _ in range(5)]
T0 = clock()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import jetcalc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = Path(".perfbench_tmp")
DIGESTS = Path(__file__).resolve().parent / "digests.json"


class PassResult:
    """Latencies, calibration samples, failures and pass 0's output digest."""

    def __init__(self):
        self.latencies = []
        self.cal_index = []  # per op: index of the last calibration sample before it
        self.cal = []
        self.failures = []  # (op index, label, reason)
        self.op_digests = []  # pass 0 only: short sha256 of each op's output
        self.digest = hashlib.sha256()

    def run(self, ops, record: bool) -> None:
        last_cal = -CAL_EVERY_S
        for op in ops:
            if clock() - last_cal >= CAL_EVERY_S:
                self.cal.append(calibrate())
                last_cal = clock()
            self.cal_index.append(len(self.cal) - 1)
            t = clock()
            try:
                raw = op.run()
            except Exception:  # one failing op must not end the run
                self.latencies.append(clock() - t)
                reason = traceback.format_exc(limit=-1).strip().splitlines()[-1]
                self.failures.append((len(self.latencies) - 1, op.label, reason))
                canonical = "exception: " + reason
            else:
                self.latencies.append(clock() - t)
                canonical, error = op.check(raw)
                if error is not None:
                    self.failures.append((len(self.latencies) - 1, op.label, error))
            if record:
                data = canonical.encode()
                self.digest.update(data + b"\0")
                self.op_digests.append(hashlib.sha256(data).hexdigest()[:8])
        self.cal.append(calibrate())

    def scaled(self) -> list:
        """Each op latency at the reference speed."""
        out = []
        for lat, j in zip(self.latencies, self.cal_index):
            local = statistics.median(self.cal[max(0, j - CAL_WINDOW + 1):j + CAL_WINDOW + 1])
            out.append(lat * REF_CAL_S / local)
        return out


def check_reference(args, ops, result: PassResult) -> str:
    """Compare pass 0's outputs with the digests recorded for this seed; each
    op whose output differs from its recorded short digest is a failed op."""
    recorded = json.loads(DIGESTS.read_text()).get(f"{args.workload}:{args.seed}:{args.corpus}")
    if recorded is None:
        return "none"
    if recorded["digest"] == result.digest.hexdigest():
        return "match"
    for k, op in enumerate(ops):
        if recorded["ops"][8 * k:8 * k + 8] != result.op_digests[k]:
            result.failures.append((k, op.label, "output differs from the recorded digest"))
    return "mismatch"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "pass", "traced"))
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if Path(jetcalc.__file__).resolve().parent.parent != src:
        print(f"jetcalc imported from {jetcalc.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = WORKDIR / f"{args.workload}-{args.mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.exists() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()


def _run(args, workdir: Path) -> int:
    wl = workloads.Workload(args.workload, args.seed, args.corpus, workdir)
    pass0 = wl.pass_ops(0)
    warm = PassResult()
    warm.run(wl.warmup_ops(), record=False)
    setup_s = clock() - T0
    cal = statistics.median(SETUP_CAL + [calibrate() for _ in range(5)])
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * REF_CAL_S / cal,
        "warmup_ops": len(warm.latencies),
        "failures": [list(f) for f in warm.failures],
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    result = PassResult()
    tracer = tracing.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
        out["patched"] = tracer.patch_count
    start = clock()
    try:
        result.run(pass0, record=True)
    finally:
        if tracer is not None:
            tracer.restore()
    out["reference"] = check_reference(args, pass0, result)
    passes = 1
    if args.mode == "timed":
        while clock() - start < args.seconds:
            result.run(wl.pass_ops(passes), record=False)
            passes += 1
    out["wall_s"] = clock() - start
    out.update(
        passes=passes,
        ops=len(result.latencies),
        latencies_s=result.latencies,
        latencies_ref_s=result.scaled(),
        failures=out["failures"] + [list(f) for f in result.failures],
        digest=result.digest.hexdigest(),
        op_digests="".join(result.op_digests),
        op_labels=[op.label for op in pass0],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["leftover_wrappers"] = tracing.leftover_wrappers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
