#!/usr/bin/env python3
"""Self-test of the benchmark's checks at toy scale (Sp2Config::small).

    python3 perfbench/test_perfbench.py

Builds p2bench, makes a toy fixture, and shows that clean runs of every
workload pass while each check fires on a damaged copy of the fixture:
a byte-flipped archive fails queries, a truncated store trips the warm
guard, and a changed reference paper fails the run with a nonzero exit.
"""

import json
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 7
# Fixture files (names as in bench.hpp).
STORE_FILE = "store.sig"
ARCHIVE_FILE = "paper.p2a"
PAPER_FILE = "paper.txt"


class BenchmarkChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.fixture = run.fixture_dir(cls.binary, SEED, toy=True)
        cls.scratch = run.BUILD_ROOT / "selftest"
        shutil.rmtree(cls.scratch, ignore_errors=True)
        cls.scratch.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def damaged(self, name, damage):
        """A copy of the toy fixture with `damage` applied to it."""
        copy = self.scratch / name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.fixture, copy)
        damage(copy)
        return copy

    def run_toy(self, fixture, workload, trace=False):
        proc = run.run_binary(self.binary, fixture, workload, SEED, 0.2,
                              trace, toy=True, capture=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return proc.returncode, result, proc.stdout

    def test_clean_runs_pass_with_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            names = {m["name"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = self.run_toy(self.fixture, workload,
                                                     trace)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), names)

    def test_flipped_archive_fails_queries(self):
        def flip(d):
            path = d / ARCHIVE_FILE
            data = bytearray(path.read_bytes())
            for pos in (len(data) // 2, len(data) - 16):
                data[pos] ^= 0xFF
            path.write_bytes(bytes(data))

        code, result, out = self.run_toy(self.damaged("flipped", flip),
                                         "paper_warm")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("x query:", out)

    def test_truncated_store_trips_warm_guard(self):
        def truncate(d):
            path = d / STORE_FILE
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

        for workload in ("paper_warm", "paper_ckpt"):
            with self.subTest(workload=workload):
                code, result, out = self.run_toy(
                    self.damaged("truncated", truncate), workload)
                self.assertNotEqual(code, 0)
                self.assertGreater(result["failed"], 0)
                self.assertIn("warm guard:", out)

    def test_paper_mismatch_fails_the_run(self):
        def change(d):
            path = d / PAPER_FILE
            path.write_text(path.read_text() + "forced mismatch\n")

        code, result, out = self.run_toy(self.damaged("mismatch", change),
                                         "paper_cold")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertIn("tables/figures differ", out)


if __name__ == "__main__":
    unittest.main()
