#!/usr/bin/env python3
"""Runs two sets of benchmark runs and checks that they agree.

    python3 perfbench/steady.py [--runs 10] [--workloads range_2t,nearest_1t]
                                [--baseline DIR] [--seconds S]

Set A runs this checkout. Set B runs the checkout at --baseline (for
example a copy of the parent commit, to compare parent and change), or
this checkout again when --baseline is not given. Runs alternate between
the sets, and which set goes first alternates with each pair, so slow
drift of the host hits both sets alike. Run i of either set uses seed i.

For every workload and end-to-end metric the tool prints each set's
median and quartiles (Python's statistics.quantiles, n=4), the spread
(q3 - q1) / median, and how much worse B's median is than A's as a share
of A's. A metric passes when both spreads stay within its bound in
BENCHMARK.json and B is not worse than A by more than the bound. As in the
benchmark's acceptance rule, the spread of setup_s is printed but not
gated; its medians must still agree. "steady" marks spreads below a third
of the bound. The exit code is 1 if any metric fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}): {workload} seed "
                         f"{seed} in {checkout}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"wrong answers: {workload} seed {seed}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric, a, b):
    """Share by which median b is worse than median a (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--baseline", default=None,
                    help="checkout for set B (default: this one)")
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    checkouts = {"A": ROOT,
                 "B": Path(args.baseline).resolve() if args.baseline
                 else ROOT}
    values = {}
    for w in workloads:
        for seed in range(1, args.runs + 1):
            order = "AB" if seed % 2 else "BA"
            for s in order:
                m = run_once(checkouts[s], w, seed, args.seconds)
                for name, v in m.items():
                    values.setdefault(w, {}).setdefault(name, {}) \
                        .setdefault(s, []).append(v)
                print(f"{w} seed {seed} set {s}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in m.items()), file=sys.stderr)

    ok = True
    print(f"{'workload':<11} {'metric':<14} {'bound':>5}  "
          f"{'A median':>10} {'A q1':>10} {'A q3':>10} {'A spr':>6}  "
          f"{'B median':>10} {'B spr':>6} {'B worse':>7}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (summary(values[w][name][s]) for s in "AB")
            worse = worse_by(metric, a["median"], b["median"])
            spreads = [a["spread"], b["spread"]]
            passed = worse <= bound
            if name != "setup_s":
                passed = passed and all(s <= bound for s in spreads)
            steady = all(s < bound / 3 for s in spreads)
            verdict = ("ok" if passed else "FAIL") + \
                (", steady" if steady else "")
            ok = ok and passed
            print(f"{w:<11} {name:<14} {bound:>5.2f}  {a['median']:>10.4g} "
                  f"{a['q1']:>10.4g} {a['q3']:>10.4g} {a['spread']:>6.3f}  "
                  f"{b['median']:>10.4g} {b['spread']:>6.3f} {worse:>7.3f}  "
                  + verdict)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
