#!/usr/bin/env python3
"""Tests for the two-clock benchmark harness.

    python3 perfbench/tests/test_benchmark.py --harness <build>/perfbench_harness

Run from the root of the checkout (ctest in the perfbench build does).
Checks that:
  * BENCHMARK.json is well formed and within its documented limits;
  * every workload prints exactly the metric names and units BENCHMARK.json
    lists, end-to-end with --trace 0 and per-layer with --trace 1;
  * the deterministic outputs repeat exactly across two invocations with
    one seed, and between the traced and the untraced run of that seed.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
HARNESS = None
SECONDS = "1"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# End-to-end metrics that must repeat exactly for a seed: everything on
# the virtual clock, and the failure share.
EXACT_E2E = ("virt_s", "virt_overhead_pct", "job_p50_virt_s",
             "job_p90_virt_s", "ok_pct")
# Per-layer metrics that repeat exactly: counts, bytes computed from
# sizes, virtual times, and shares and ratios of those.
EXACT_LAYER_UNITS = ("count", "MB", "sim_s")
EXACT_LAYER_NAMES = ("abft.critical_pct", "sim.gpu_util_pct",
                     "sim.idle_critical_pct", "runtime.dag_gain_pct_tardis",
                     "runtime.dag_gain_pct_bulldozer64", "fault.detect_ratio",
                     "service.useful_attempt_ratio")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


_runs = {}


def run(workload, seed, trace):
    """Runs the harness once; returns (progress lines, result dict)."""
    key = (workload, seed, trace)
    if key not in _runs:
        proc = subprocess.run(
            [HARNESS, "--workload", workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise AssertionError("%s exited %d: %s" %
                                 (key, proc.returncode, proc.stderr))
        lines = proc.stdout.strip().splitlines()
        _runs[key] = (lines[:-1], json.loads(lines[-1]))
    return _runs[key]


def digests(lines):
    return [l.split("deterministic digest", 1)[1].strip()
            for l in lines if "deterministic digest" in l]


class BenchmarkJson(unittest.TestCase):
    def test_shape_and_limits(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(1 <= len(b["command"]) <= 32)
        self.assertTrue(all(len(c) <= 200 for c in b["command"]))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names used twice")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(os.path.getsize(
            os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)


class HarnessOutput(unittest.TestCase):
    def check_names(self, trace, section):
        b = load_benchmark()
        want = [(m["name"], m["unit"]) for m in b[section]]
        for w in (w["name"] for w in b["workloads"]):
            _, res = run(w, 1, trace)
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"], w)
            self.assertGreaterEqual(res["attempted"], 1)
            got = [(k, v["unit"]) for k, v in res["metrics"].items()]
            self.assertEqual(got, want, w)

    def test_end_to_end_names_match_benchmark_json(self):
        self.check_names(0, "end_to_end")

    def test_per_layer_names_match_benchmark_json(self):
        self.check_names(1, "per_layer")

    def test_deterministic_metrics_repeat(self):
        b = load_benchmark()
        units = {m["name"]: m["unit"] for m in b["per_layer"]}
        for w in (w["name"] for w in b["workloads"]):
            lines_a, a = run(w, 1, 0)
            lines_c, c = run(w, 1, 1)
            # Same seed, second invocation.
            _runs.pop((w, 1, 0))
            lines_a2, a2 = run(w, 1, 0)
            for k in EXACT_E2E:
                self.assertEqual(a["metrics"][k]["value"],
                                 a2["metrics"][k]["value"], (w, k))
            self.assertEqual((a["attempted"], a["failed"]),
                             (a2["attempted"], a2["failed"]), w)
            # Traced and untraced runs agree on the deterministic digest
            # of their first input (batch 0 for the fleet).
            self.assertEqual(digests(lines_a), digests(lines_a2), w)
            self.assertEqual(digests(lines_a)[0], digests(lines_c)[0], w)
            _runs.pop((w, 1, 1))
            _, c2 = run(w, 1, 1)
            for k, v in c["metrics"].items():
                if units[k] in EXACT_LAYER_UNITS or k in EXACT_LAYER_NAMES:
                    self.assertEqual(v["value"], c2["metrics"][k]["value"],
                                     (w, k))


def main():
    global HARNESS
    ap = argparse.ArgumentParser()
    ap.add_argument("--harness", required=True)
    args, rest = ap.parse_known_args()
    HARNESS = os.path.abspath(args.harness)
    unittest.main(argv=[sys.argv[0]] + rest, verbosity=2)


if __name__ == "__main__":
    main()
