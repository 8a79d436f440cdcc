#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at its tiny size.

    python3 perfbench/tests/test_smoke.py

Run from the root of a checkout (the first run builds the benchmark).
For each workload, an untraced and a traced run must:
  * end with the JSON result line, correct, with no failed operation;
  * print every metric BENCHMARK.json names, with the unit it names,
    both in the readable report and in the JSON (end-to-end metrics
    untraced, per-layer metrics traced);
  * print a sample count beside every percentile and op_fail_ratio = 0;
  * agree on every simulated figure the two runs both print.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


def printed(text, name):
    """The `  name  value unit [(n=N)]` line of the readable report."""
    m = re.search(r"^\s+%s\s+(\S+) (\S+)(?:\s+\(n=(\d+)\))?$"
                  % re.escape(name), text, re.M)
    return m


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace, metrics):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            line = printed(proc.stdout, m["name"])
            self.assertIsNotNone(line, "%s not printed" % m["name"])
            self.assertEqual(line.group(2), m["unit"], m["name"])
            if re.search(r"_p\d+$", m["name"]):
                self.assertIsNotNone(line.group(3),
                                     "%s has no sample count" % m["name"])
        self.assertRegex(proc.stdout, r"(?m)^op_fail_ratio = 0 ")
        return proc.stdout, result

    def test_layer_map_covers_every_layer_metric_once(self):
        with open(os.path.join(ROOT, "perfbench", "spec.json")) as f:
            spec = json.load(f)
        mapped = [m for row in spec["layer_map"] for m in row["metrics"]]
        self.assertEqual(sorted(mapped),
                         sorted(m["name"] for m in SPEC["per_layer"]))
        names = {w["name"] for w in SPEC["workloads"]}
        ends = {m["name"] for m in SPEC["end_to_end"]}
        for row in spec["layer_map"]:
            self.assertLessEqual(set(row["on"] + row["no_move_on"]), names)
            self.assertLessEqual(set(row["moves"]), ends)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                plain, plain_res = self.check_run(w["name"], 0,
                                                  SPEC["end_to_end"])
                traced, _ = self.check_run(w["name"], 1, SPEC["per_layer"])
                self.assertIn("traced vs untraced: identical", traced)
                # The simulated figures both reports carry must agree.
                ident = r"(?m)^identity: .*$"
                self.assertEqual(re.search(ident, plain).group(0),
                                 re.search(ident, traced).group(0))
                for name in ("sim_op_us_p50", "sim_op_us_p99"):
                    self.assertEqual(printed(plain, name).groups(),
                                     printed(traced, name).groups())
                self.assertRegex(plain, r"(?m)^determinism: identical")


if __name__ == "__main__":
    unittest.main()
