#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

They pin what the benchmark promises about itself: inputs depend on the seed
and nothing else, the printed metric names are BENCHMARK.json's, a single
corrupted egress byte is caught, and a checkout without the sources fails
without printing a result.  Each run is one second long; the whole suite
takes a few minutes, most of it set-up.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    """Runs perfbench/run.py; returns (exit code, stdout lines)."""
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def input_hash(lines):
    for line in lines:
        m = re.match(r"# input_hash=([0-9a-f]{16})$", line)
        if m:
            return m.group(1)
    raise AssertionError("no input_hash line")


class InputsDependOnlyOnTheSeed(unittest.TestCase):
    def test_same_seed_same_hash_other_seed_other_hash(self):
        for w in ("svc_hh_zipf_hostile", "compile_corpus"):
            with self.subTest(workload=w):
                runs = [bench(w, seed=s) for s in (7, 7, 8)]
                for rc, _ in runs:
                    self.assertEqual(rc, 0)
                h7, h7again, h8 = (input_hash(lines) for _, lines in runs)
                self.assertEqual(h7, h7again)
                self.assertNotEqual(h7, h8)

    def test_dist_and_service_see_the_same_frames(self):
        hashes = {input_hash(bench(w, seed=3)[1])
                  for w in ("svc_flowlets_uniform", "dist_flowlets_tcp")}
        self.assertEqual(len(hashes), 1)


class PrintedMetricsAreTheDeclaredOnes(unittest.TestCase):
    def check(self, trace, declared):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                rc, lines = bench(w, trace=trace)
                self.assertEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertEqual(
                    sorted(result), ["attempted", "correct", "failed",
                                     "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in declared})

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check(0, BENCH["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(1, BENCH["per_layer"])


class CorruptedEgressIsCaught(unittest.TestCase):
    def test_one_flipped_byte_makes_error_rate_nonzero(self):
        for w in ("svc_flowlets_uniform", "dist_flowlets_tcp"):
            with self.subTest(workload=w):
                rc, lines = bench(w, extra=["--corrupt-egress"])
                self.assertNotEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["match_rate"]["value"], 1)
                rates = [float(m) for line in lines
                         for m in re.findall(r"error_rate (\S+)", line)]
                self.assertTrue(rates and rates[0] > 0)


class BareCheckoutFails(unittest.TestCase):
    def test_no_sources_no_result(self):
        scratch = os.path.join(ROOT, ".bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = bench(WORKLOADS[0], cwd=bare)
        self.assertNotEqual(rc, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
