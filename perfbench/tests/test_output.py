#!/usr/bin/env python3
"""End-to-end check of the benchmark's output contract.

    python3 perfbench/tests/test_output.py

For every workload in BENCHMARK.json, one short untraced and one short
traced run must exit 0, print every end-to-end metric (plus
failed_op_ratio) by name, unit and sample count, and end with a JSON
object whose metrics are exactly the declared end-to-end (untraced) or
per-layer (traced) ones. Also checks that a checkout holding only the
benchmark fails without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT, seconds=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class OutputContract(unittest.TestCase):
    def check(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        printed = {}
        for line in lines[:-1]:
            hit = re.match(r"^(\S+)\s+(-?[\d.]+)\s+(\S+)\s+n=(\d+)$", line)
            if hit:
                printed[hit.group(1)] = hit.group(3)
        for m in SPEC["end_to_end"]:
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        self.assertEqual(printed.get("failed_op_ratio"), "ratio")

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1)

    def test_benchmark_alone_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run(SPEC["workloads"][0]["name"], 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
