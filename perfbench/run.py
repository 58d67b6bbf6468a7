#!/usr/bin/env python3
"""Runs one workload of the orionscan end-to-end benchmark.

    python3 perfbench/run.py --workload ingest|study --seed N \
        --seconds S --trace 0|1 [--size paper|tiny]

Builds perfbench/ (the library modules plus the orionbench driver) into
$CARGO_TARGET_DIR (default .bench_build) on first use, runs the driver,
and prints a run record line followed, as the last line, by one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The driver measures the layers each
workload owns (listed in the run record) and reports an explicit 0 for
the others; a metric it does not report fails the run. Exits 0 only when
every check passed.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures once and (re)builds the driver; returns its path or None."""
    tree = out / "perfbench"
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(tree), "-j", "4", "--target", "orionbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return tree / "orionbench"


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the library sources the driver is built from."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["ingest", "study"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="paper", choices=["paper", "tiny"])
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src").is_dir() or not spec_path.exists():
        log("perfbench: run from an orionscan checkout (src/ and BENCHMARK.json)")
        return 2
    spec = json.loads(spec_path.read_text())
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size,
           "--work-dir", str(out / "work" / f"{tag}-{os.getpid()}")]
    if args.trace == "1":
        (out / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(out / "traces" / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: orionbench exited with {proc.returncode}")
        return 3
    raw = json.loads(lines[-1])

    wanted = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    metrics = {}
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            log(f"perfbench: metric {m['name']} was not measured")
            correct = False
            continue
        if args.trace == "0" and value <= 0:
            log(f"perfbench: metric {m['name']} read {value}")
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": int(args.trace), "git_sha": git_sha(),
        "source_digest": source_digest(), "build_type": raw["build_type"],
        "nproc": len(os.sched_getaffinity(0)), "simd_tier": raw["simd"],
        "layers_measured": raw["layers"], **raw["record"],
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
