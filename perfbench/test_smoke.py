#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in well under a minute.

    python3 perfbench/test_smoke.py

Runs every workload untraced and traced at smoke scale (tiny world, short
stream, reduced profiling) and checks that the result line follows the
contract in BENCHMARK.json: exactly the listed metrics with their units,
every correctness check of the workload evaluated and passed, no failed
operations. Also checks that the driver refuses a behaviour-changing
ANOLE_* variable, and that the benchmark fails cleanly in a directory that
holds nothing but BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

SERVING_CHECKS = (
    "set-up artifacts byte-identical",
    "artifact save(load(x)) == x",
    "pass replays pass 0 (digest and trace hashes)",
)
TRACED_SERVING_CHECKS = (
    "artifact save(load(x)) == x",
    "traced infer reproduces engine detections",
    "traced pass replays untraced (digest and trace hashes)",
    "scenario trace hash replays",
)
EXPECTED_CHECKS = {
    ("stream_clean", "0"): SERVING_CHECKS,
    ("stream_clean", "1"): TRACED_SERVING_CHECKS
    + ("traced suitability reproduces engine top-1",
       "batch digest equals frame-by-frame digest"),
    ("stream_hostile", "0"): SERVING_CHECKS,
    ("stream_hostile", "1"): TRACED_SERVING_CHECKS,
    ("osp_standard", "0"): (
        "profiling run trains the target model count",
        "artifact save(load(x)) == x",
        "profiling run artifacts byte-identical",
    ),
    ("osp_standard", "1"): (
        "profiling run trains the target model count",
        "artifact save(load(x)) == x",
        "staged OSP replay artifact byte-identical to run()",
        "quantized artifact save(load(x)) == x",
    ),
}


def run_bench(workload, trace, seconds="2", env=None, cwd=ROOT):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", trace, "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        out = run_bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["end_to_end" if trace == "0" else "per_layer"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for metric in listed:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
        if trace == "0":
            for name, got in result["metrics"].items():
                self.assertGreater(got["value"], 0, name)
        passed = {line[len("check "):].rsplit(" pass (", 1)[0].strip()
                  for line in lines if line.startswith("check ") and " pass (" in line}
        for check in EXPECTED_CHECKS[(workload, trace)]:
            self.assertIn(check, passed, (workload, trace))
        self.assertFalse([line for line in lines if " FAIL (" in line])
        self.assertTrue(any(line.startswith("provenance {") for line in lines))

    def test_every_workload_and_mode(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_refuses_behaviour_changing_env(self):
        env = dict(os.environ, ANOLE_FAULTS="model_load=0.5")
        out = run_bench("stream_clean", "0", env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)
        self.assertIn("ANOLE_FAULTS", out.stderr)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("stream_clean", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
