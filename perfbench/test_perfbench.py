#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that deterministic values repeat exactly across runs and seeds, that one
deliberately failed operation shows in `failed` and `ops_failed_frac`,
and that the benchmark refuses a pinned-away environment and a checkout
without the simulator sources. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY_SCALE = "2"

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Simulated quantities: any two runs of the same code must agree.
DETERMINISTIC = ["core.cycles", "core.committed", "critpath.nodes",
                 "critpath.edges", "critpath.relaxes",
                 "explore.frontier_points",
                 "explore.projection_err_max_pct",
                 "explore.projection_err_mean_pct"]

_cache = {}


def run(workload, seed, trace, *extra, env=None, check=True, fresh=False):
    """Run the benchmark at the tiny size; return (manifest, result).
    Results are reused across tests unless @p fresh is set."""
    key = (workload, seed, trace, extra)
    if env is None and not fresh and key in _cache:
        return _cache[key]
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", TINY_SCALE,
         *extra],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=600)
    if not check:
        return completed
    if completed.returncode != 0:
        raise AssertionError(f"{workload} exited {completed.returncode}: "
                             f"{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    outcome = (json.loads(lines[-2])["manifest"], json.loads(lines[-1]))
    if env is None and not fresh:
        _cache[key] = outcome
    return outcome


class PerfbenchTest(unittest.TestCase):

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    manifest, result = run(workload, 1, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    printed = {name: value["unit"] for name, value
                               in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, value in result["metrics"].items():
                        self.assertIsInstance(value["value"], (int, float),
                                              name)
                    for key in ("build_type", "ipo_lto", "assert",
                                "compiler", "cxx_flags", "revision",
                                "nproc", "load_before", "load_after",
                                "seed", "scale_pct"):
                        self.assertIn(key, manifest)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            _, result = run(workload, 1, 0)
            for name, value in result["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(value["value"], 0)

    def test_deterministic_values_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 1, 1)[1]["metrics"]
                again = run(workload, 1, 1, fresh=True)[1]["metrics"]
                other_seed = run(workload, 2, 1)[1]["metrics"]
                for name in DETERMINISTIC:
                    self.assertEqual(first[name]["value"],
                                     again[name]["value"], name)
                    self.assertEqual(first[name]["value"],
                                     other_seed[name]["value"], name)
        grid = run("critpath_grid", 1, 1)[1]["metrics"]
        self.assertGreater(grid["core.cycles"]["value"], 0)
        self.assertGreater(grid["critpath.nodes"]["value"], 0)
        lattice = run("whatif_lattice", 1, 1)[1]["metrics"]
        self.assertGreater(lattice["explore.frontier_points"]["value"], 0)

    def test_one_failed_operation_raises_ops_failed_frac(self):
        _, result = run("paper_grid", 1, 1, "--inject-failure")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)  # once per phase
        frac = result["metrics"]["ops_failed_frac"]["value"]
        self.assertAlmostEqual(frac, result["failed"] / result["attempted"])
        self.assertGreater(frac, 0)

    def test_refuses_sweep_environment(self):
        env = dict(os.environ, SDSP_BENCH_FAULT="fail:0")
        completed = run("paper_grid", 1, 0, env=env, check=False)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)
        self.assertIn("SDSP_BENCH_FAULT", completed.stderr)

    def test_fails_without_simulator_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        try:
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_grid", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=alone, capture_output=True, text=True,
                timeout=180)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)


if __name__ == "__main__":
    unittest.main()
