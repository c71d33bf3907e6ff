"""Self-tests of the benchmark, in its tiny mode (n <= 64).

    python3 perfbench/selftest.py

Checks that every run prints every BENCHMARK.json metric with its unit,
that traced and untraced passes give identical outputs, that one
perturbed reference row is counted as exactly one failed op, and that
the benchmark refuses to run without the program's sources.  Takes
about half a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import bootstrap

bootstrap.pin_threads()
bootstrap.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root, *args):
    """Run the copy of run.py under root, from root, as the benchmark is run."""
    script = Path(root, bootstrap.BENCH_DIR.name, "run.py")
    return subprocess.run([sys.executable, str(script), *args], cwd=root, capture_output=True,
                          text=True, timeout=170)


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in workloads.NAMES:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = _run(bootstrap.ROOT, "--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", str(trace), "--tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_to_run_without_the_program(self):
        bootstrap.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bootstrap.OUT_DIR) as bare:
            shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(bootstrap.BENCH_DIR, Path(bare, bootstrap.BENCH_DIR.name),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = _run(bare, "--workload", "solve", "--seed", "0", "--seconds", "1",
                        "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class InProcess(unittest.TestCase):
    def _workload(self, name):
        return workloads.make(name, 5, True, tempfile.mkdtemp(dir=self.scratch))

    def setUp(self):
        bootstrap.OUT_DIR.mkdir(exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="selftest-", dir=bootstrap.OUT_DIR)

    def tearDown(self):
        shutil.rmtree(self.scratch)

    def test_traced_and_untraced_outputs_are_identical(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                workload = self._workload(name)
                plain = workload.run_pass()
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced = workload.run_pass(tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain.failed, 0)
                self.assertEqual(traced.outputs, plain.outputs)
                self.assertGreater(len(tracer.spans), 0)
                layers = {s[1] for s in tracer.spans}
                self.assertTrue(layers <= set(spans.LAYERS), layers)

    def test_one_perturbed_reference_row_is_one_failed_op(self):
        for name, command, row, column, new in (
            ("study_dense", "spectrum", 3, 2, None),      # float cell, moved by 1e-6
            ("study_solvers", "mgm", 2, 3, "999"),        # integer cell
        ):
            with self.subTest(workload=name, command=command):
                workload = self._workload(name)
                baseline = workload.run_pass()
                lines = workload.reference[command].splitlines()
                cells = lines[row].split(",")
                cells[column] = new or repr(float(cells[column]) * (1 + 1e-6))
                lines[row] = ",".join(cells)
                workload.reference[command] = "\n".join(lines) + "\n"
                perturbed = workload.run_pass()
                self.assertEqual(baseline.failed, 0)
                self.assertEqual(perturbed.attempted, baseline.attempted)
                self.assertEqual(perturbed.failed, 1)

    def test_float_cells_match_within_tolerance_only(self):
        ref = "n,value\n8,1.0000000000e+00\n"
        self.assertEqual(workloads.compare_csv("n,value\n8,1.000000005e+00\n", ref), (1, 0))
        self.assertEqual(workloads.compare_csv("n,value\n8,1.00000002e+00\n", ref), (1, 1))
        self.assertEqual(workloads.compare_csv(None, ref), (1, 1))


if __name__ == "__main__":
    unittest.main(verbosity=2)
