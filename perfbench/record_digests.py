"""Record the reference output digests that runs compare pass 0 against.

    python3 perfbench/record_digests.py

Run from the root of a checkout, on a commit whose outputs are known good.
It runs pass 0 of every workload for each reference seed, one process at a
time, and rewrites perfbench/digests.json.  A run whose seed is not recorded
still checks every output, and reports its digest with "reference: none".
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import HELD_OUT, ROOT, WORKLOADS  # noqa: E402

REFERENCE_SEEDS = [(seed, 0) for seed in range(11)] + [HELD_OUT]


def main() -> int:
    path = BENCH / "digests.json"
    path.write_text("{}\n")  # record without comparing to the old references
    digests = {}
    for workload in WORKLOADS:
        for seed, corpus in REFERENCE_SEEDS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--corpus", str(corpus), "--mode", "pass"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if out["failures"]:
                print(f"{workload} seed {seed}: {out['failures'][0]}", file=sys.stderr)
                return 1
            digests[f"{workload}:{seed}:{corpus}"] = {"digest": out["digest"], "ops": out["op_digests"]}
            print(f"{workload} seed {seed} corpus {corpus}: {out['digest']}")
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
