#!/usr/bin/env python3
"""Tests of the benchmark itself: the quick mode of every workload.

Run from the repository root:

    python3 vcaperf/test_vcaperf.py                  # all tests
    python3 vcaperf/test_vcaperf.py --update-goldens # re-pin quick totals

Each workload runs in quick mode (small inputs, seed 7) untraced and
traced. The tests check the result line against the schema BENCHMARK.json
declares, that the traced run reproduces the untraced totals, and that the
totals equal the ones pinned in quick_totals.json. A changed total means
the simulator's or analyzer's output changed; re-pin only when that change
is intended.
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
OUT = os.path.join(ROOT, ".bench_build", "test-out")
GOLDENS = os.path.join(HERE, "quick_totals.json")
SEED = 7


def run_quick(workload, trace):
    """Runs one quick workload; returns (exit code, stdout lines, record)."""
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--quick", "--out", OUT],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    record_path = os.path.join(
        OUT, f"{workload}-seed{SEED}-trace{trace}.json")
    with open(record_path) as f:
        record = json.load(f)
    return r.returncode, r.stdout.strip().splitlines(), record


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class QuickWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.runs = {}
        for w in cls.bench["workloads"]:
            for trace in (0, 1):
                cls.runs[(w["name"], trace)] = run_quick(w["name"], trace)

    def check_schema(self, lines, declared):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        return result

    def test_untraced_schema_and_nonzero_metrics(self):
        for w in self.bench["workloads"]:
            code, lines, _ = self.runs[(w["name"], 0)]
            with self.subTest(workload=w["name"]):
                self.assertEqual(code, 0)
                result = self.check_schema(lines, self.bench["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_schema(self):
        for w in self.bench["workloads"]:
            code, lines, _ = self.runs[(w["name"], 1)]
            with self.subTest(workload=w["name"]):
                self.assertEqual(code, 0)
                self.check_schema(lines, self.bench["per_layer"])

    def test_traced_totals_equal_untraced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                self.assertEqual(self.runs[(w["name"], 0)][2]["totals"],
                                 self.runs[(w["name"], 1)][2]["totals"])

    def test_totals_match_goldens(self):
        with open(GOLDENS) as f:
            goldens = json.load(f)
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                self.assertEqual(self.runs[(w["name"], 0)][2]["totals"],
                                 goldens[w["name"]])

    def test_host_block(self):
        host = self.runs[("analyzer_churn", 0)][2]["host"]
        self.assertGreaterEqual(host["cores"], 1)
        self.assertTrue(host["cpu_model"])
        self.assertTrue(host["compiler"])
        self.assertTrue(host["build_type"])
        self.assertGreater(host["calibration_mops"], 0)

    def test_traced_run_writes_chrome_trace(self):
        path = os.path.join(OUT, f"conf_city-seed{SEED}.trace.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        self.assertIn("core.run_until", names)
        self.assertIn("vca.add_client", names)
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in events))


class StrippedCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        """Only BENCHMARK.json and vcaperf/: no result, nonzero exit."""
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "vcaperf"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "vcaperf/run.py", "--workload", "conf_city",
                 "--seed", "1", "--seconds", "2", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)


def update_goldens():
    goldens = {}
    for w in load_benchmark()["workloads"]:
        code, _, record = run_quick(w["name"], 0)
        if code != 0:
            sys.exit(f"{w['name']} failed; goldens not written")
        goldens[w["name"]] = record["totals"]
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if "--update-goldens" in sys.argv:
        update_goldens()
    else:
        unittest.main()
