#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same build, taken
minutes apart, compared metric by metric.

    python3 perfbench/steady.py [--runs 10] [--gap-minutes 5] [--seconds 30]

Run from the repository root. Every run is `perfbench/run.py --trace 0`
on one of BENCHMARK.json's workloads with its own seed; set 1 uses seeds
1..runs and set 2 seeds runs+1..2*runs, so the sets differ in inputs as
well as in time. Host speed on a shared machine drifts slowly, which sets
run back to back would hide, hence the gap.

For each workload and end-to-end metric the report gives each set's
median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json, and
the drift |median2 - median1| / median1 of set 2's median from set 1's,
in either direction. It also checks that every run was correct and that
the share of failed operations is the same in both sets. Raw results go
to .bench_build/perfbench/steady-<time>.json. Exit status 1 when a spread
or a drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    took = time.monotonic() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"  {workload:<17} seed {seed:<4} {took:5.1f}s  correct={result['correct']}  "
          + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    p.add_argument("--gap-minutes", type=float, default=5)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}  # per workload: one list of results per set
    for k in range(SETS):
        if k > 0:
            print(f"waiting {args.gap_minutes} min before set {k + 1}", flush=True)
            time.sleep(args.gap_minutes * 60)
        print(f"set {k + 1} ({time.strftime('%H:%M:%S')})", flush=True)
        for w in workloads:
            results[w].append([])
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            for w in workloads:
                results[w][k].append(run_once(w, seed, args.seconds))

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps(results, indent=1))

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<13} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'drift':>7} {'bound':>6}")
        shares = set()
        for k, runs in enumerate(results[w]):
            if not all(r["correct"] for r in runs):
                print(f"  set {k + 1}: a run was not correct")
                ok = False
            shares.add((sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
        if len({f / a for f, a in shares}) != 1:
            print(f"  failed share differs between sets: {sorted(shares)}")
            ok = False
        for name, m in bounds.items():
            first = None
            for k, runs in enumerate(results[w]):
                median, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                if first is None:
                    first = median
                drift = abs(median - first) / first
                flags = []
                if spread > m["bound"]:
                    flags.append("SPREAD")
                elif spread > m["bound"] / 3:
                    flags.append("spread>bound/3")
                if drift > m["bound"]:
                    flags.append("DRIFT")
                ok = ok and "SPREAD" not in flags and "DRIFT" not in flags
                print(f"  {name:<13} {k + 1:>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {drift:>7.3f} {m['bound']:>6} {' '.join(flags)}")
    print(f"\nraw results: {raw}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
