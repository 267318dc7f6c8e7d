#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json at a small size, untraced and
traced, and checks that each passes its correctness checks with no failed
operation and prints exactly the metrics BENCHMARK.json names. Feeds the
checkers wrong outputs (driver selftest) and sees each one rejected. Runs
the benchmark in a directory without the program's sources and sees it
refuse. The first test to run builds the program, as a first benchmark run
does.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, cwd=ROOT, timeout=900):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace),
                             "--small"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout,
                          check=False)


class WorkloadTest(unittest.TestCase):
    def check_result(self, workload, trace, metrics):
        done = run_benchmark(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertIn("machine: nproc=", done.stdout)
        self.assertIn("kernel_isa=", done.stdout)
        return result

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_print_every_per_layer_metric_and_spans(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_result(w["name"], 1, SPEC["per_layer"])
                self.assertGreater(
                    result["metrics"]["trace.coverage_pct"]["value"], 0)
                spans = json.loads(
                    (ROOT / ".bench_work" /
                     f"{w['name']}-3-spans.json").read_text())["spans"]
                self.assertTrue(spans)
                for span in spans:
                    self.assertLessEqual(span["start_s"], span["end_s"])
                    self.assertEqual(set(span), {"id", "name", "start_s",
                                                 "end_s", "parent",
                                                 "request"})


class CheckerTest(unittest.TestCase):
    def test_checkers_reject_wrong_outputs(self):
        run_benchmark(SPEC["workloads"][0]["name"], 0)  # builds the driver
        driver = ROOT / ".bench_build" / "driver" / "perfbench_driver"
        done = subprocess.run([str(driver), "selftest"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stdout)
        for case in ("wrong pattern count", "over-bound label",
                     "wrong true count", "wrong estimate",
                     "wrong reported error"):
            self.assertRegex(done.stdout, case + r"\s+rejected")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run_benchmark(SPEC["workloads"][0]["name"], 0, cwd=bare,
                                 timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
