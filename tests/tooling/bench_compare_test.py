#!/usr/bin/env python3
"""Tests for scripts/bench_compare.py.

Runs the compare script as a subprocess against synthetic perfbench
results and a small benchmark declaration, and checks its verdicts: a
metric worse than its bound fails the run, one within it passes, either
direction of "better" is honoured, and a missing metric, a larger failure
share or unreadable input are reported. The --pairs cases check the
medians, quartiles and lower-pair counts it prints and that it judges the
medians, not single runs. One case reads the repository's own
BENCHMARK.json so the script keeps up with its format.

Runs directly too: `python3 tests/tooling/bench_compare_test.py`.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(
    os.environ.get("STREAMSC_REPO_ROOT",
                   pathlib.Path(__file__).resolve().parents[2]))
SCRIPT = REPO_ROOT / "scripts" / "bench_compare.py"

BENCHMARK = {
    "command": ["true"],
    "paths": [],
    "end_to_end": [
        {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "warm_frac", "unit": "ratio", "better": "higher",
         "bound": 0.1},
    ],
}


def result(solve_s=1.0, warm_frac=0.5, attempted=100, failed=0,
           correct=True, drop=()):
    metrics = {"solve_s": {"value": solve_s, "unit": "s"},
               "warm_frac": {"value": warm_frac, "unit": "ratio"}}
    for name in drop:
        del metrics[name]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.benchmark = self.write("BENCHMARK.json", BENCHMARK)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, obj, stamp=False):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if stamp:
                f.write(json.dumps({"stamp": {"workload": "w"}}) + "\n")
            f.write(json.dumps(obj) + "\n")
        return path

    def compare(self, parent, change, benchmark=None):
        return subprocess.run(
            [sys.executable, str(SCRIPT),
             self.write("parent.json", parent, stamp=True),
             self.write("change.json", change),
             "--benchmark", benchmark or self.benchmark],
            capture_output=True, text=True, check=False)

    def test_within_bounds_passes_and_prints_both_sides(self):
        run = self.compare(result(solve_s=1.0), result(solve_s=1.2))
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertRegex(run.stdout, r"solve_s\s+s\s+lower\s+1\s+1\.2\s+"
                                     r"\+20\.0%\s+25%\s+ok")
        self.assertNotIn("REGRESSION", run.stdout)

    def test_lower_is_better_metric_worse_than_bound_fails(self):
        run = self.compare(result(solve_s=1.0), result(solve_s=1.3))
        self.assertEqual(run.returncode, 1)
        self.assertRegex(run.stdout, r"solve_s .*WORSE")
        self.assertIn("REGRESSION: solve_s", run.stdout)

    def test_higher_is_better_metric_worse_than_bound_fails(self):
        run = self.compare(result(warm_frac=0.5), result(warm_frac=0.4))
        self.assertEqual(run.returncode, 1)
        self.assertIn("REGRESSION: warm_frac", run.stdout)
        # Rising is better for it, however far.
        run = self.compare(result(warm_frac=0.5), result(warm_frac=0.9))
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertRegex(run.stdout, r"warm_frac .*better")

    def test_improvement_passes(self):
        run = self.compare(result(solve_s=5.0), result(solve_s=1.0))
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertRegex(run.stdout, r"solve_s .*-80\.0%.*better")

    def test_zero_parent_value_fails_on_any_worsening(self):
        run = self.compare(result(solve_s=0.0), result(solve_s=0.001))
        self.assertEqual(run.returncode, 1, run.stdout)

    def test_metric_missing_from_change_fails(self):
        run = self.compare(result(), result(drop=("warm_frac",)))
        self.assertEqual(run.returncode, 1)
        self.assertIn("REGRESSION: warm_frac: missing", run.stdout)

    def test_larger_failure_share_fails(self):
        run = self.compare(result(failed=1), result(failed=2))
        self.assertEqual(run.returncode, 1)
        self.assertIn("larger share", run.stdout)
        self.assertIn("change: 2 of 100 operations failed", run.stdout)

    def test_incorrect_change_fails(self):
        run = self.compare(result(), result(correct=False))
        self.assertEqual(run.returncode, 1)
        self.assertIn("incorrect", run.stdout)

    def test_result_line_is_accepted_in_place_of_a_file(self):
        run = subprocess.run(
            [sys.executable, str(SCRIPT), json.dumps(result()),
             json.dumps(result()), "--benchmark", self.benchmark],
            capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)

    def test_unreadable_input_exits_2(self):
        path = os.path.join(self.dir.name, "garbage.txt")
        with open(path, "w") as f:
            f.write("no result here\n")
        run = subprocess.run(
            [sys.executable, str(SCRIPT), path, path,
             "--benchmark", self.benchmark],
            capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 2)
        self.assertIn("no perfbench result line", run.stderr)

    def compare_pairs(self, parents, changes):
        args = [sys.executable, str(SCRIPT), "--pairs", "--parent"]
        args += [self.write("p%d.json" % i, r, stamp=True)
                 for i, r in enumerate(parents)]
        args += ["--change"]
        args += [self.write("c%d.json" % i, r) for i, r in enumerate(changes)]
        return subprocess.run(args + ["--benchmark", self.benchmark],
                              capture_output=True, text=True, check=False)

    def test_pairs_print_medians_quartiles_and_lower_count(self):
        run = self.compare_pairs(
            [result(solve_s=v) for v in (1.0, 1.2, 1.1, 1.3, 0.9)],
            [result(solve_s=v) for v in (0.6, 0.7, 0.65, 1.4, 0.62)])
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn("5 pairs", run.stdout)
        self.assertRegex(run.stdout,
                         r"solve_s\s+s\s+lower\s+1\.1\s+1-1\.2\s+0\.65\s+"
                         r"0\.62-0\.7\s+4/5\s+-40\.9%\s+25%\s+better")
        self.assertRegex(run.stdout, r"warm_frac .*0/5 .*ok")

    def test_pairs_judge_the_median_not_single_runs(self):
        # One slow change run does not fail the change...
        run = self.compare_pairs([result()] * 3,
                                 [result(solve_s=v) for v in (1.0, 1.1, 5.0)])
        self.assertEqual(run.returncode, 0, run.stdout)
        # ...but a median beyond the bound does, however many pairs won.
        run = self.compare_pairs([result()] * 3,
                                 [result(solve_s=v) for v in (0.9, 1.3, 1.4)])
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertRegex(run.stdout, r"solve_s .*1/3 .*WORSE")
        self.assertIn("REGRESSION: solve_s", run.stdout)

    def test_pairs_metric_missing_from_one_change_run_fails(self):
        run = self.compare_pairs([result()] * 2,
                                 [result(), result(drop=("warm_frac",))])
        self.assertEqual(run.returncode, 1)
        self.assertIn("REGRESSION: warm_frac: missing", run.stdout)

    def test_pairs_sum_the_failure_shares(self):
        run = self.compare_pairs([result()] * 2, [result(failed=1), result()])
        self.assertEqual(run.returncode, 1)
        self.assertIn("change: 1 of 200 operations failed", run.stdout)
        self.assertIn("larger share", run.stdout)

    def test_pairs_need_as_many_change_runs_as_parent_runs(self):
        run = self.compare_pairs([result()] * 2, [result()])
        self.assertEqual(run.returncode, 2)
        self.assertIn("as many --change runs", run.stderr)

    def test_reads_the_repository_benchmark(self):
        with open(REPO_ROOT / "BENCHMARK.json") as f:
            names = [m["name"] for m in json.load(f)["end_to_end"]]
        same = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {n: {"value": 1.0} for n in names}}
        run = self.compare(same, same,
                           benchmark=str(REPO_ROOT / "BENCHMARK.json"))
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        for name in names:
            self.assertRegex(run.stdout, r"(?m)^%s\s" % name)


if __name__ == "__main__":
    unittest.main()
