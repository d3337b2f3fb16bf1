#!/usr/bin/env python3
"""Run one qmcrisk benchmark workload and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client: operations of fixed size run back to
back for up to S seconds (at least two of them), and every output is
checked.  The workload seed goes into the generated config,
which is all the package receives.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` untraced and traced operations alternate, and the result
carries the per-layer metrics of the traced ones plus the tracing overhead.
The last line of standard output is the result object; the line before it
is the run record (context, config, per-operation samples and checks).
Exits 2 without a result when the package or the arguments are missing.
"""

import os

# one compute pool only: the workload's own threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from setup_probe import warm_up  # noqa: E402
from tracing import Tracer, layer_metrics, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Cold starts per untraced run, spread over it: SETUP_EDGE before the first
# operation, one between each pair, and after the last as many as make
# SETUP_PROBES, at least SETUP_EDGE.  The host's speed moves on a scale of
# seconds, so the probes sample the whole run and setup_s is their minimum.
SETUP_PROBES = 20
SETUP_EDGE = 6
# two, so a median never rests on one sample and a traced run holds an
# untraced operation to compare with
MIN_OPS = 2

END_TO_END = {
    "points_per_s": "points/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "randomize.owen_scramble.s": "s",
    "randomize.owen_scramble.ns_per_coord": "ns",
    "randomize.owen_scramble.coords": "count",
    "randomize.owen_scramble.peak_mib": "MiB",
    "randomize.digital_shift.s": "s",
    "randomize.digital_shift.ns_per_coord": "ns",
    "randomize.digital_shift.coords": "count",
    "lowdisc.sobol_points.s": "s",
    "lowdisc.sobol_points.ns_per_coord": "ns",
    "lowdisc.sobol_points.coords": "count",
    "lowdisc.sobol_points.peak_mib": "MiB",
    "models.evaluate.s": "s",
    "models.evaluate.ns_per_row": "ns",
    "models.evaluate.rows": "count",
    "models.evaluate.peak_mib": "MiB",
    "models.evaluate.useful_ratio": "ratio",
    "estimators.s": "s",
    "estimators.calls": "count",
    "experiments.self_s": "s",
    "experiments.pool.busy_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class Usage(Exception):
    pass


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be a nonnegative 63-bit integer")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """qmcrisk from this checkout's src/, never from anywhere else."""
    if not (SRC / "qmcrisk" / "__init__.py").is_file():
        raise Usage(f"no qmcrisk package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qmcrisk

    if Path(qmcrisk.__file__).resolve().parent != (SRC / "qmcrisk").resolve():
        raise Usage(f"imported qmcrisk from {qmcrisk.__file__}, not from {SRC}")
    return qmcrisk


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def version(dist: str) -> Optional[str]:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def cold_start() -> float:
    """Set-up time of the package in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_op(q, workload, cfg: dict, tracer: Optional[Tracer]) -> dict:
    """One operation: run, time, check.  Failures are recorded, not raised."""
    traced = tracer is not None
    start = time.perf_counter()
    wall = None
    try:
        if traced:
            tracemalloc.start()
            try:
                with patched(tracer, q):
                    out = workload.run(q, cfg)
            finally:
                tracemalloc.stop()
        else:
            out = workload.run(q, cfg)
        wall = time.perf_counter() - start
        problems = workload.check(q, cfg, out)
        fingerprint = workload.fingerprint(out)
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        return {"wall_s": wall or time.perf_counter() - start, "traced": traced, "ok": False,
                "problems": ["raised"], "fingerprint": None}
    return {"wall_s": wall, "traced": traced, "ok": not problems,
            "problems": problems, "fingerprint": fingerprint}


def run_ops(q, workload, cfg: dict, seconds: float, trace: bool,
            probe: Optional[Callable[[], float]] = None) -> tuple:
    """At least MIN_OPS operations, then more while the next one, judged by
    the slowest so far, still ends within ``seconds``.  With tracing,
    untraced and traced operations alternate.  ``probe`` is called between
    the operations as set out at SETUP_PROBES; its results are returned."""
    ops: List[dict] = []
    setup: List[float] = []
    tracer = Tracer() if trace else None

    def probes(count: int) -> None:
        if probe is not None:
            setup.extend(probe() for _ in range(count))

    start = time.perf_counter()
    probes(SETUP_EDGE)
    while True:
        traced = trace and len(ops) % 2 == 1
        ops.append(run_op(q, workload, cfg, tracer if traced else None))
        slowest = max(op["wall_s"] for op in ops)
        if len(ops) >= MIN_OPS and time.perf_counter() - start + slowest > seconds:
            break
        probes(1)
    probes(max(SETUP_EDGE, SETUP_PROBES - len(setup)))
    mark_changed_repeats(ops)
    return ops, tracer, setup


def mark_changed_repeats(ops: List[dict]) -> None:
    """Every repeat of a config must give the first operation's output."""
    first = ops[0]["fingerprint"]
    for op in ops[1:]:
        if op["ok"] and op["fingerprint"] != first:
            op["ok"] = False
            op["problems"].append("output differs from the first operation's")


def end_to_end(ops: List[dict], useful: int, setup: List[float]) -> Dict[str, float]:
    rates = [useful / op["wall_s"] if op["ok"] else 0.0 for op in ops]
    return {
        "points_per_s": statistics.median(rates),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": min(setup),
    }


def per_layer(ops: List[dict], tracer: Tracer, useful: int) -> Dict[str, float]:
    traced = [op["wall_s"] for op in ops if op["traced"]]
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    out = layer_metrics(tracer.spans, len(traced), useful)
    overhead = statistics.median(traced) - statistics.median(plain)
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = overhead / statistics.median(plain)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        q = import_package()
    except Usage as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    warm_up(q)

    threads = nproc()
    cfg = workload.config(args.seed, threads)
    useful = workload.useful_points(cfg)
    probe = None if args.trace else cold_start
    ops, tracer, setup = run_ops(q, workload, cfg, args.seconds, bool(args.trace), probe)

    if args.trace:
        values, units = per_layer(ops, tracer, useful), PER_LAYER
    else:
        values, units = end_to_end(ops, useful, setup), END_TO_END
    failed = sum(not op["ok"] for op in ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": {
            "nproc": threads,
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "qmcrisk": getattr(q, "__version__", None),
            "git_commit": git_commit(),
            "machine": platform.machine(),
        },
        "config": cfg,
        "useful_points_per_op": useful,
        "setup_s_samples": setup,
        "ops": [{k: op[k] for k in ("wall_s", "traced", "ok", "problems")} for op in ops],
        "error_rate": failed / len(ops),
        "untraced_call_sites": sorted(tracer.missing) if tracer else [],
        "output_sha256": hashlib.sha256((ops[0]["fingerprint"] or "").encode()).hexdigest(),
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
