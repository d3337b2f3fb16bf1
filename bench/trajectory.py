#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarize the spread.

usage: python3 bench/trajectory.py [--workloads a,b] [--runs 10] [--traced-runs 1]
                                   [--out FILE]

Each run is a fresh ``bench/run.py`` process of ``run_seconds`` from
BENCHMARK.json, with its own seed (1, 2, ...), one after another; untraced
runs first, then traced ones.  For every metric the summary gives the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread, (q3 - q1) / median.  With ``--out`` the runs and the summary are
written as JSON, the form of the committed trajectory points.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def run_set(name, seeds, trace):
    results = []
    for seed in seeds:
        r = run_once(name, seed, trace)
        results.append(r)
        metrics = {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()}
        print(f"{name} trace={trace} seed={seed} correct={r['result']['correct']} {metrics}", flush=True)
    names = results[0]["result"]["metrics"]
    summary = {k: summarize([r["result"]["metrics"][k]["value"] for r in results]) for k in names}
    for k in names:
        s = summary[k]
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"  {name} {k}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
    summary["attempted"] = sum(r["result"]["attempted"] for r in results)
    summary["failed"] = sum(r["result"]["failed"] for r in results)
    return results, summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    ap.add_argument("--traced-runs", type=int, default=1, help="traced runs per workload")
    ap.add_argument("--out")
    args = ap.parse_args()

    runs, summary = [], {}
    for name in args.workloads.split(","):
        for trace, count in ((0, args.runs), (1, args.traced_runs)):
            if count < 1:
                continue
            results, summary[f"{name} trace={trace}"] = run_set(name, range(1, count + 1), trace)
            runs += results
    if args.out:
        doc = {"context": runs[0]["record"]["context"], "seconds": SECONDS,
               "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
