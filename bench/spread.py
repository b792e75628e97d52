"""Run the benchmark over ten seeds and report how steady it is.

    python3 bench/spread.py [--trace] [--out bench/baseline.json]

It runs every workload of BENCHMARK.json with seeds 1-10 and its
run_seconds.  For every workload and end-to-end metric it prints the median
over the seeds and the spread (q3 - q1) / median from
statistics.quantiles(n=4), next to the metric's bound.  Runs interleave the
workloads so that a drift of the machine's speed hits them alike.  With
--trace it adds one traced run per workload (seed 1).  --out writes every
run's result, the summary and the machine info as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


SEEDS = range(1, 11)


def _once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=run.ROOT, capture_output=True, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - t0
    return result


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    machine_start = run._machine()
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            r = _once(w, seed, seconds, 0)
            r["seed"] = seed
            runs[w].append(r)
            print(f"{w} seed {seed}: {r['run_s']:.1f} s, failed "
                  f"{r['failed']}/{r['attempted']}, correct {r['correct']}",
                  flush=True)

    summary = {}
    for w, rs in runs.items():
        summary[w] = {}
        print(f"\n{w}: {len(rs)} runs, run time median "
              f"{statistics.median(r['run_s'] for r in rs):.1f} s")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            summary[w][m["name"]] = {"median": med, "q1": q[0], "q3": q[2],
                                     "spread": spread, "unit": m["unit"]}
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<12} {med:>12.6g} {m['unit']:<5} spread "
                  f"{spread:7.2%}  bound {m['bound']:.0%}  {flag}")
        shares = [r["failed"] / r["attempted"] for r in rs]
        summary[w]["failed_share"] = {"median": statistics.median(shares),
                                      "min": min(shares), "max": max(shares)}
        print(f"  failed_share median {statistics.median(shares):.4f} "
              f"(min {min(shares):.4f}, max {max(shares):.4f})")

    traces = {}
    if args.trace:
        for w in workloads:
            traces[w] = _once(w, SEEDS[0], seconds, 1)
            print(f"traced {w} seed {SEEDS[0]}: {traces[w]['run_s']:.1f} s",
                  flush=True)

    if args.out:
        doc = {"machine_start": machine_start, "machine_end": run._machine(),
               "run_seconds": seconds, "seeds": list(SEEDS),
               "summary": summary, "runs": runs, "traced": traces}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
