"""Tests of the benchmark itself: python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs every workload in --smoke mode, both untraced and traced, so each
oracle path and every timed call runs, and checks the result line
against BENCHMARK.json. Also checks that the oracle rejects wrong
answers and that the benchmark refuses to run without the sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py")] + list(args),
                          cwd=root, capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        p = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


class Oracle(unittest.TestCase):
    def test_wrong_verdict(self):
        with self.assertRaises(run.OracleError):
            run.check_verdicts("token-ring", dict(run.VERDICTS["dijkstra-3state"]), "test")

    def test_nonconverged_solve(self):
        out = "expected stabilization time (NONCONVERGED partial iterate): mean 1.0 steps\n"
        with self.assertRaises(run.OracleError):
            run.parse_cli_markov(out)

    def test_markov_output(self):
        out = ("sparse solve: 1 blocks, 4304 sweeps, final relative residual 9.9e-11\n"
               "herman(n=11): converges with probability 1 under central-random\n"
               "expected stabilization time: mean 684.1572 steps, worst initial configuration 704.6733 steps\n")
        mean, counters = run.parse_cli_markov(out)
        self.assertTrue(run.close(mean, run.MEANS[("herman", 11, "central-random")]))
        self.assertEqual(counters, {"blocks": 1, "sweeps": 4304})
        self.assertFalse(run.close(mean * 1.001, mean))

    def test_monte_carlo_interval(self):
        self.assertTrue(run.mc_agrees(7.0612, 7.036, 3.9, 20000))
        self.assertFalse(run.mc_agrees(7.0612, 7.2, 3.9, 20000))

    def test_tail(self):
        self.assertEqual(run.tail([4.0]), (4.0, 90.0, 0))
        # Below 100 samples: the interpolated 90th percentile, which moves
        # smoothly with the sample count.
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (2.8, 90.0, 1))
        self.assertEqual(run.tail([float(i) for i in range(16)]), (13.5, 90.0, 2))
        self.assertAlmostEqual(run.tail([float(i) for i in range(99)])[0], 88.2)
        # From 100 on: the highest percentile with ten samples beyond it.
        self.assertEqual(run.tail([float(i) for i in range(100)]), (89.0, 90.0, 10))
        self.assertEqual(run.tail([float(i) for i in range(200)]), (189.0, 95.0, 10))


class NoSources(unittest.TestCase):
    def test_refuses_without_sources(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = bench("--workload", "solve-herman-ring11", "--seed", "1", "--seconds", "1", "--trace", "0", root=tmp)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
