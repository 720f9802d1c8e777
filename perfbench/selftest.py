"""Self-test of the benchmark: schema and output checks, never timings.

    python3 perfbench/selftest.py

Runs each workload in quick mode against a live node and checks the result
line against BENCHMARK.json, checks that the output checks reject wrong
answers, and checks that the benchmark fails cleanly without the sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class Schema(unittest.TestCase):
    def test_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], ["factor", "encode"])
        self.assertTrue(all(w["name"] in run.WORKLOADS for w in spec["workloads"]))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = set()
        for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
            for metric in spec[kind]:
                self.assertEqual(set(metric), keys)
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
                self.assertNotIn(metric["name"], names)
                names.add(metric["name"])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Checks(unittest.TestCase):
    def test_factor_replies(self):
        self.assertIsNone(workloads.check_factor(15, 0, "15 = 5 × 3\n"))
        self.assertIsNone(workloads.check_factor(13, 20, "UNSAT (no two factors of length 8)\n"))
        self.assertIsNotNone(workloads.check_factor(15, 0, "15 = 15 × 1\n"))
        self.assertIsNotNone(workloads.check_factor(15, 0, "15 = 3 × 5\n"))  # v > u
        self.assertIsNotNone(workloads.check_factor(15, 20, "UNSAT\n"))
        self.assertIsNotNone(workloads.check_factor(13, 0, "13 = 13 × 1\n"))
        self.assertIsNotNone(workloads.check_factor(15, 30, "UNKNOWN\n"))
        self.assertIsNotNone(workloads.check_factor(15, 1, "error: web call failed\n"))

    def test_factor_inputs(self):
        numbers = workloads.factor_inputs(5)
        self.assertEqual(numbers, workloads.factor_inputs(5))
        self.assertNotEqual(numbers, workloads.factor_inputs(6))
        sat = [n for n in numbers if workloads.factor_pair(n) is not None]
        self.assertTrue(0.7 < len(sat) / len(numbers) < 0.8)
        self.assertTrue(all(n < 1 << 14 for n in numbers))

    def test_same_clauses(self):
        class Replica:
            var_count = 3

            def clause_tuples(self):
                return [(1, -2), (3,)]

        self.assertIsNone(workloads.same_clauses(Replica(), 3, frozenset({(1, -2), (3,)})))
        self.assertIsNotNone(workloads.same_clauses(Replica(), 4, frozenset({(1, -2), (3,)})))
        self.assertIsNotNone(workloads.same_clauses(Replica(), 3, frozenset({(1, -2)})))

    def test_tail(self):
        self.assertAlmostEqual(run.tail([float(i) for i in range(100)]), 89.1)
        self.assertEqual(run.tail([3.0]), 3.0)


class QuickRuns(unittest.TestCase):
    def check_result(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = run.declared_units()[kind]
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, declared)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        for name in declared:
            self.assertIn(f" {name} = ", proc.stdout)

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--quick")
                self.check_result(proc, "end_to_end")

    def test_traced(self):
        proc = bench("--workload", "encode", "--seed", "1", "--seconds", "4", "--trace", "1", "--quick")
        self.check_result(proc, "per_layer")
        self.assertTrue((BENCH_DIR / "out" / "spans-encode-seed1.json").is_file())

    def test_fails_without_sources(self):
        bare = BENCH_DIR / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "factor", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
