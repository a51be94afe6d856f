"""Self-test of the cackit benchmark, at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Runs every workload untraced and traced through run.py, checks that each
metric named in BENCHMARK.json is printed with its unit, and that a
deliberately damaged output is counted as a failed operation. The file
name keeps it out of the package's own pytest run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None
    return proc.returncode, json.loads(lines[-1])


class MetricsEmitted(unittest.TestCase):
    def check_metrics(self, result: dict, expected: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_untraced_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, 0)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0.0, m["name"])

    def test_traced_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertEqual(result["metrics"]["cac_engine.replay_match"]["value"], 1.0)


class CorruptedOutput(unittest.TestCase):
    def test_damaged_model_raises_fail_frac(self):
        for workload in ("cac_auto", "deepcac", "score"):
            with self.subTest(workload=workload):
                code, result = bench(workload, 0, "--corrupt")
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class NoSources(unittest.TestCase):
    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-work") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result = bench(WORKLOADS[0], 0, cwd=Path(tmp))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    unittest.main()
