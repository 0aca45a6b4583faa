#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root (builds rsr_perfbench first, like run.py):

    python3 perfbench/test_perfbench.py

- every metric BENCHMARK.json names appears, with its unit, in the output
  of each workload (e2e metrics untraced, per-layer metrics traced), and
  the serve layer answers the design_sweep mix from its caches;
- the deterministic outputs of two short runs are identical, and equal the
  committed goldens;
- a corrupted golden makes the op count as failed;
- unknown flags are rejected and --help runs nothing.
"""

import json
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
GOLDENS = os.path.join(HERE, "goldens")
# Shorter than any op: every workload still completes one round.
SHORT_S = "0.2"
SEED = 7


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build_dir()
        cls.binary = run.build(cls.build)
        cls.tmp = tempfile.mkdtemp(dir=cls.build)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def drive(self, *args, goldens=GOLDENS):
        p = subprocess.run([self.binary, "--goldens", goldens,
                            "--out", os.path.join(self.tmp, "out"), *args],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=300)
        return p

    def result(self, workload, trace, goldens=GOLDENS):
        p = self.drive("--workload", workload, "--seed", str(SEED),
                       "--seconds", SHORT_S, "--trace", str(trace),
                       goldens=goldens)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_metric_with_unit_on_every_workload(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = self.result(w["name"], trace)
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for k, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, k)
                    if trace == 1 and w["name"] == "design_sweep":
                        v = {k: m["value"] for k, m in r["metrics"].items()}
                        # 1 cold, 3 warm and 12 cached of 16 requests.
                        self.assertEqual(v["serve.result_cache_hit_ratio"],
                                         0.75)
                        self.assertEqual(v["serve.store_reuse_ratio"], 0.75)
                        self.assertGreater(v["serve.frame_encode_us"], 0)
                        self.assertGreater(v["serve.frame_decode_us"], 0)

    def test_deterministic_outputs_repeat_and_match_goldens(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                files = []
                for i in range(2):
                    path = os.path.join(self.tmp, f"{w['name']}.{i}.txt")
                    p = self.drive("--mode", "goldens", "--workload",
                                   w["name"], "--seeds", f"{SEED}-{SEED}",
                                   "--write", path)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    with open(path) as f:
                        files.append(f.read())
                self.assertEqual(files[0], files[1])
                with open(os.path.join(GOLDENS, w["name"] + ".txt")) as f:
                    shipped = [l for l in f.read().splitlines()
                               if l.startswith(f"{SEED} ")]
                self.assertEqual(files[0].splitlines(), shipped)

    def test_corrupted_golden_fails_the_op(self):
        bad = os.path.join(self.tmp, "bad_goldens")
        shutil.copytree(GOLDENS, bad, dirs_exist_ok=True)
        path = os.path.join(bad, "sparse_skip.txt")
        with open(path) as f:
            lines = f.read().splitlines()
        i = next(n for n, l in enumerate(lines) if l.startswith(f"{SEED} "))
        lines[i] = lines[i].replace("hot_cycles=", "hot_cycles=1")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        r = self.result("sparse_skip", 0, goldens=bad)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)

    def test_flags(self):
        p = self.drive("--workload", "sparse_skip", "--sed", "1")
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("--seed", p.stderr)
        p = subprocess.run([self.binary, "--help"], stdout=subprocess.PIPE,
                           text=True, timeout=30)
        self.assertEqual(p.returncode, 0)
        self.assertIn("usage:", p.stdout)
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--help"], stdout=subprocess.PIPE, text=True,
                           timeout=30)
        self.assertEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
