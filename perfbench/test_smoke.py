#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark itself.

    python3 perfbench/test_smoke.py

Runs every workload at the tiny scenario size, untraced and traced, with
the same correctness gates as the paper-size runs, and checks the result
line against BENCHMARK.json. Then checks that the benchmark refuses to
run, without printing a result, from a directory that holds only
BENCHMARK.json and perfbench/. Takes well under a minute once built.
"""
import functools
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Layers whose correct value is 0 (nothing dropped, nothing failed) or
# that may read either side of 0 (traced minus untraced time).
MAY_BE_ZERO = {"pipeline.dropped_share", "failed_share", "trace.overhead_share"}
BUILD = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = BUILD if BUILD.is_absolute() else ROOT / BUILD


@functools.lru_cache(maxsize=None)
def run(cwd, workload, trace, seed=7):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class TinyWorkloads(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines[-2].startswith("run_record "))
        record = json.loads(lines[-2][len("run_record "):])
        for key in ("seed", "git_sha", "build_type", "nproc", "hardware_concurrency",
                    "simd_tier"):
            self.assertIn(key, record)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        owned = set(record["layers_measured"])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            if not trace or (m["name"] in owned and m["name"] not in MAY_BE_ZERO):
                self.assertGreater(got["value"], 0, m["name"])
        return result, owned

    def test_ingest(self):
        self.check("ingest", 0)
        result, owned = self.check("ingest", 1)
        self.assertIn("pipeline.checkpoint_bytes", owned)
        self.assertEqual(result["metrics"]["pipeline.dropped_share"]["value"], 0)

    def test_study(self):
        self.check("study", 0)
        result, owned = self.check("study", 1)
        self.assertGreaterEqual(result["metrics"]["study.ledger_coverage"]["value"], 0.95)
        # The traced study run also measures the serve layers.
        self.assertIn("serve.max_qps", owned)

    def test_every_layer_has_an_owner(self):
        # Every per-layer metric is measured by some workload, and by name.
        owned = set()
        for workload in SPEC["workloads"]:
            owned |= self.check(workload["name"], 1)[1]
        self.assertEqual(owned, {m["name"] for m in SPEC["per_layer"]})

    def test_refuses_without_sources(self):
        bare = BUILD / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "ingest", 0)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
