"""The benchmark's own tests.

    python3 -m pytest perfbench        # or: python3 -m unittest discover -s perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import PassResult  # noqa: E402

# Runs the first ops of pass 0 in a fresh process and prints its digest.
PREFIX_RUN = """
import sys
sys.path[:0] = ["perfbench", "src"]
import json, workloads
from pathlib import Path
from worker import PassResult
name, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
work = Path(".perfbench_tmp") / ("test-" + name)
work.mkdir(parents=True, exist_ok=True)
result = PassResult()
result.run(workloads.Workload(name, seed, 0, work).pass_ops(0)[:count], record=True)
print(json.dumps({"digest": result.digest.hexdigest(), "failures": result.failures}))
"""


def prefix_run(name: str, seed: int, count: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PREFIX_RUN, name, str(seed), str(count)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class DigestTest(unittest.TestCase):
    def tearDown(self):
        scratch = ROOT / ".perfbench_tmp"
        for name in workloads.WORKLOADS:
            shutil.rmtree(scratch / f"test-{name}", ignore_errors=True)
        if scratch.exists() and not any(scratch.iterdir()):
            scratch.rmdir()

    def test_two_runs_give_identical_digests_and_no_failures(self):
        for name in workloads.WORKLOADS:
            first, second = prefix_run(name, 3, 24), prefix_run(name, 3, 24)
            self.assertEqual(first["failures"], [], name)
            self.assertEqual(first, second, name)

    def test_seed_changes_the_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(prefix_run(name, 3, 6)["digest"], prefix_run(name, 4, 6)["digest"], name)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.pool = [2 * c for c in workloads.BASE_POOL]
        self.expected = workloads.expected_report("jacobi", 5, self.pool)

    def test_accepts_a_real_pass(self):
        op = workloads.suite_op("jacobi", 5, 2)
        _, error = op.check(op.run())
        self.assertIsNone(error)

    def test_rejects_a_forged_failing_report(self):
        forged = dict(self.expected, holds=False, failures=[{"trial": 0, "seed": 5}])
        self.assertIn("holds", workloads.check_suite_report(forged, self.expected))
        forged = dict(self.expected, failures=[{"trial": 0, "seed": 5}])
        self.assertIn("failures", workloads.check_suite_report(forged, self.expected))

    def test_rejects_a_vacuous_report(self):
        for trials in (0, -3, True, None):
            forged = dict(self.expected, trials=trials)
            self.assertIn("vacuous", workloads.check_suite_report(forged, self.expected))

    def test_rejects_other_bytes(self):
        forged = dict(self.expected, seed=6)
        self.assertIsNotNone(workloads.check_suite_report(forged, self.expected))

    def test_cli_checker_needs_exit_zero_and_verdicts(self):
        argv = ["verify", "jacobi", "--session", "s.jet", "--operands", "F", "G", "H"]
        good = "identity: jacobi\nseed: None\ntrial 0: pass\ntrials: 1\nfailures: 0\nholds: true\n"
        self.assertIsNone(workloads.check_cli_output(argv, 0, good))
        self.assertIsNotNone(workloads.check_cli_output(argv, 1, good))
        self.assertIsNotNone(workloads.check_cli_output(argv, 0, good.replace("holds: true", "holds: false")))
        self.assertIsNotNone(workloads.check_cli_output(argv, 0, good.replace("trials: 1", "trials: 0")))
        bracket = ["bracket", "--left", "F", "--right", "G", "--format", "json"]
        self.assertIsNotNone(workloads.check_cli_output(bracket, 0, '{"agree": false}'))
        self.assertIsNone(workloads.check_cli_output(bracket, 0, '{"agree": true}'))


class TracingTest(unittest.TestCase):
    def snapshot(self) -> dict:
        names = {}
        for mod in tracing._jetcalc_modules():
            for name, value in vars(mod).items():
                names[(mod.__name__, name)] = value
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        names[(mod.__name__, name, attr)] = member
        return names

    def test_restore_puts_every_original_back(self):
        from jetcalc import calculus, cli, expressions, identities

        ops = [
            workloads.suite_op("prop2", 1, 2),
            workloads.cli_op(["anomaly", "--session", workloads.INTRO, "--f", "F", "--g", "G"]),
        ]
        before = self.snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(identities.linearize, before[("jetcalc.identities", "linearize")])
            self.assertIs(identities.linearize, calculus.linearize)
            self.assertIsNot(cli.hessian_form, before[("jetcalc.cli", "hessian_form")])
            self.assertIs(expressions.PolyExpr.__radd__, expressions.PolyExpr.__add__)
            result = PassResult()
            result.run(ops, record=False)
        finally:
            tracer.restore()
        self.assertEqual(result.failures, [])
        self.assertGreater(tracer.metrics()["expressions.total_derivative.calls"], 0)
        self.assertGreater(tracer.metrics()["cli.build_parser.calls"], 0)
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        self.assertEqual(tracing.leftover_wrappers(), [])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_benchmark_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(tracing.LAYER_METRICS),
        )

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-session",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
