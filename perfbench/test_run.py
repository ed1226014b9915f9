#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_run.py

Runs the Rust unit tests of the benchmark package (seeded inputs, the
metric catalog against BENCHMARK.json, order statistics, span
arithmetic), then a one-second smoke run of every workload with tracing
off and on through `run.py`, checking that each passes its output checks
and reports every metric of BENCHMARK.json with its unit. Finally it
checks that the benchmark refuses to run without the repository sources.
Run from the repository root; builds into $CARGO_TARGET_DIR (default
`.bench_build`).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
if not TARGET.is_absolute():
    TARGET = ROOT / TARGET
ENV = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))


def run_bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, env=ENV, timeout=900)


class BenchmarkTests(unittest.TestCase):
    def test_unit_tests_pass(self):
        out = subprocess.run(
            ["cargo", "test", "--release", "--offline", "--quiet",
             "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
            capture_output=True, text=True, cwd=ROOT, env=ENV, timeout=900)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_smoke_run_of_every_workload(self):
        for workload in [w["name"] for w in BENCH["workloads"]]:
            for trace, catalog in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], out.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, out.stderr)
                    expected = {m["name"]: m["unit"] for m in BENCH[catalog]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_refuses_to_run_without_the_sources(self):
        bare = TARGET / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
        try:
            out = run_bench("bounds-dense", 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
