#!/usr/bin/env python3
"""Builds and runs the lsdb benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload range_2t --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and compiles
perfbench/CMakeLists.txt (lsdb from ../src, Release, lock-order verifier
off) into $CARGO_TARGET_DIR (default .bench_build); later runs only
rebuild what changed. The last line of stdout is

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). The line before it is the binary's full
report: the host and build block and every metric the run measured. The
traced run also writes its spans to <build dir>/traces/.

Exit codes: 0 = every answer was correct; 1 = a wrong answer or a binary
that must not be measured (lock-order verifier armed, not Release);
2 = the benchmark could not build or run.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds lsdb_perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"lsdb sources not found under {ROOT}")
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "lsdb_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "lsdb_perfbench"


def run_binary(binary, args):
    """Runs lsdb_perfbench; returns its report (the last stdout line)."""
    work = build_dir() / "work"
    traces = build_dir() / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work),
           "--trace-out",
           str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.corrupt_response:
        cmd.append("--corrupt-response")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"lsdb_perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-response", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    report = run_binary(build(), args)
    print(json.dumps(report, sort_keys=True))
    host = report["host"]
    if not host.get("counted"):
        fail(f"binary not counted: build_type={host.get('build_type')} "
             f"lock_verifier={host.get('lock_verifier')}", code=1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = report["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the run")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"metric {m['name']} has no finite value")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
