#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds the harness through run.py. Checks
that the correctness gate catches a wrong digest, and that the exact work
counts printed beside the timings repeat at every pool size. Every run is
one full pass of a workload as the benchmark times it (--seconds 1), so
the whole file takes a few minutes.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("dataflow-nets", "codesign-draw", "serve-mix", "spad4-layers")
# The workload with the shortest pass.
FASTEST = "spad4-layers"


def run(workload, *extra, out=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0"] + list(extra)
    if out:
        cmd += ["--out", out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=os.path.dirname(HERE), timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s exited %d" % (cmd, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


class GateTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        result = run(FASTEST)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_perturbed_digest_makes_error_rate_nonzero(self):
        result = run(FASTEST, "--perturb-digest")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)


class WorkCountTest(unittest.TestCase):
    def test_counts_repeat_across_pool_sizes(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in WORKLOADS:
                work = {}
                for threads in ("1", "4"):
                    out = os.path.join(tmp, "%s-%s.jsonl" % (workload,
                                                             threads))
                    result = run(workload, "--threads", threads, out=out)
                    self.assertTrue(result["correct"], workload)
                    with open(out) as f:
                        work[threads] = json.loads(f.readline())["work"]
                self.assertGreater(work["1"].get("newton_steps", 0), 0)
                self.assertEqual(work["1"], work["4"], workload)


if __name__ == "__main__":
    unittest.main()
