#!/usr/bin/env python3
"""Smoke test of the vqlsrv benchmark: schema and correctness gate.

    python3 perfbench/smoke_test.py

Runs every workload in smoke mode (a small archive, one-second windows),
untraced and traced, and checks that the last line of output is the JSON
object BENCHMARK.json promises: exactly its end-to-end metrics untraced,
exactly its per-layer metrics traced, with their units. Then alters one
answer before the correctness gate and checks that the run fails without
printing a result.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        out = run("--workload", workload, "--smoke", "--seed", "7",
                  "--seconds", "1", "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertIn("correct: ", out.stdout)
        self.assertIn("dropped=0", out.stdout)
        return out.stdout

    def test_browse(self):
        self.check("browse", 0)
        self.check("browse", 1)

    def test_ingest(self):
        self.check("ingest", 0)
        self.assertIn("accounting: ", self.check("ingest", 1))

    def test_archive(self):
        self.check("archive", 0)
        self.check("archive", 1)

    def test_gate_fails_on_a_wrong_answer(self):
        for workload in ("browse", "archive"):
            out = run("--workload", workload, "--smoke", "--seconds", "1",
                      "--inject-mismatch")
            self.assertNotEqual(out.returncode, 0, out.stdout)
            self.assertIn("correctness gate failed", out.stderr)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
