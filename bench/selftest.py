"""Fast self-test of the benchmark harness: ``python3 bench/selftest.py``.

Runs every workload shrunk to tiny degrees, untraced and traced, and
checks that each reports exactly the metrics ``BENCHMARK.json`` names,
with their units, and that the output checks catch a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import reference  # noqa: E402
import report  # noqa: E402
from run import ROOT, measure  # noqa: E402
from workloads import WORKLOADS, Job, jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyWorkloads(unittest.TestCase):

    def check_metrics(self, trace: bool, declared: list[dict]) -> None:
        units = {m["name"]: m["unit"] for m in declared}
        for name in WORKLOADS:
            with self.subTest(workload=name, trace=trace):
                res = measure(name, seed=3, seconds=0, trace=trace, tiny=True)
                self.assertTrue(res["correct"], res["messages"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in res["metrics"].items()}, units)

    def test_end_to_end_metrics(self):
        self.check_metrics(False, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_metrics(True, SPEC["per_layer"])

    def test_report_prints_every_metric(self):
        untraced = measure("table1", seed=3, seconds=0, trace=False,
                           tiny=True)
        traced = measure("table1", seed=3, seconds=0, trace=True, tiny=True)
        rec = report.workload_record(untraced, traced)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            report.print_record("table1", rec)
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIn(metric["name"], out.getvalue())


class Checks(unittest.TestCase):

    def test_wrong_dims_are_counted(self):
        good = jobs("table1", 1, tiny=True)[0]
        bad = Job(good.space, good.r, good.c, good.max_degree, good.kind,
                  (1, 2, 3, 4))
        for job, failures in ((good, 0), (bad, 3)):
            tally = child.Tally()
            p = child.build(job)
            child.check(tally, job, p, *child.solve(job, p))
            self.assertEqual(tally.failed, failures)

    def test_wrong_euler_characteristic_is_counted(self):
        job = jobs("symmetric", 1, tiny=True)[1]
        p = child.build(job)
        verified, tables = child.solve(job, p)
        tables["sign"] = tables["trivial"]
        tally = child.Tally()
        child.check(tally, job, p, verified, tables)
        self.assertGreater(tally.failed, 0)

    def test_raising_job_is_counted(self):
        tally = child.Tally()
        job = Job("Q1", 2, "1", 2, "cohomology")
        self.assertIsNone(tally.attempt(job, child.build, job))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_reference_chunk_is_independent_of_cdgacalc(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, reference; reference.reference_s(); "
             "print(any(m.startswith('cdgacalc') for m in sys.modules))"],
            cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.stdout.strip(), "False", proc.stderr)

    def test_steps_are_divided_by_the_reference_speed(self):
        # A machine at half the reference speed halves every step.
        slow = 2 * reference.REFERENCE_CHUNK_S
        with mock.patch.object(reference, "reference_s", return_value=slow):
            res = child.run_plain(jobs("many-points", 1, tiny=True), False)
        for name in ("setup_s", "solve_s", "wall_s"):
            self.assertGreater(res[name], 0)
            self.assertAlmostEqual(res[name], res["raw"][name] / 2)

    def test_seed_fixes_the_inputs(self):
        for name in WORKLOADS:
            self.assertEqual(jobs(name, 7), jobs(name, 7))
        self.assertNotEqual(jobs("symmetric", 1), jobs("symmetric", 2))


class Refusal(unittest.TestCase):

    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            skip = shutil.ignore_patterns("out", "__pycache__")
            shutil.copytree(HERE, Path(tmp) / "bench", ignore=skip)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "table1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
