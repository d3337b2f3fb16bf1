"""The benchmark's workloads: generated configs, the operation each one
runs, the useful work it delivers and the checks on its output.

Every workload evaluates the default 15-edge SAN at p = 0.1.  Why each one
exists, and what it leaves out, is in README.md next to this file.

Output checks are statistical, against the SAN reference (v, c) and the
plain-MC error at the workload's sample size, so a change that only moves
the tail digits of the scramble still passes while a broken generator,
scramble or estimator fails.  They never compare against stored bytes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List

import numpy as np

P = 0.1

# 10^8-sample pseudorandom reference for the default SAN at p = 0.1, as
# rounded in the test suite and ROADMAP.  Its own standard error is about
# 3.5e-4, so the slack covers the rounding plus four of those.
SAN_V = 5.683
SAN_C = 4.845
SAN_REF_SLACK = 0.002
# Loss density at v and the standard deviation of the shortfall summand,
# both from mc_truth at n = 10^7: v_stderr = sqrt(p(1-p)/n) / density and
# c_stderr = SAN_C_SIGMA / sqrt(n).
SAN_DENSITY = 0.0847
SAN_C_SIGMA = 3.26
# standard errors a result may sit from the reference
Z = 5.0

# rows compared between an operation's points and a fresh call for the
# same seed, which pins the seed and the prefix property of the samplers
PREFIX_ROWS = 64

GRID = tuple(2 ** k for k in range(8, 17))


def mc_stderr_v(n: int) -> float:
    """Plain-MC standard error of the p-quantile estimate at sample size n."""
    return math.sqrt(P * (1.0 - P) / n) / SAN_DENSITY


def mc_stderr_c(n: int) -> float:
    """Plain-MC standard error of the shortfall estimate at sample size n."""
    return SAN_C_SIGMA / math.sqrt(n)


def mc_mse_v(n: int) -> float:
    """Plain-MC mean squared error of the p-quantile, p(1-p) / (N f^2)."""
    return mc_stderr_v(n) ** 2


def check_against_reference(v: float, c: float, n: int) -> List[str]:
    """(v, c) from n points must lie within Z plain-MC standard errors of
    the reference.  RQMC errors are smaller, so the bound holds for every
    sampler."""
    problems = []
    for name, got, ref, se in (("v", v, SAN_V, mc_stderr_v(n)), ("c", c, SAN_C, mc_stderr_c(n))):
        tol = Z * se + SAN_REF_SLACK
        if not math.isfinite(got) or abs(got - ref) > tol:
            problems.append(f"{name} = {got!r} is more than {tol:.3g} from the reference {ref}")
    return problems


# ---- study-rqmc: run_convergence on the paper's headline experiment ----


def study_config(seed: int, nproc: int) -> dict:
    return {
        "samplers": ["rqmc-owen", "rqmc-shift"],
        "n_grid": list(GRID),
        "replications": 16,
        "master_seed": seed,
        "p": P,
        "truth_v": SAN_V,
        "truth_c": SAN_C,
        "threads": nproc,
    }


def study_run(q, cfg: dict) -> dict:
    exp = q.ExperimentConfig(
        model=q.SanModel(),
        p=cfg["p"],
        samplers=tuple(cfg["samplers"]),
        n_grid=tuple(cfg["n_grid"]),
        replications=cfg["replications"],
        master_seed=cfg["master_seed"],
        truth=q.TruthSpec("explicit", v=cfg["truth_v"], c=cfg["truth_c"]),
    )
    table = q.run_convergence(exp, threads=cfg["threads"])
    return {"csv": table.to_csv(), "rows": [asdict(r) for r in table.rows]}


def study_useful_points(cfg: dict) -> int:
    return cfg["replications"] * len(cfg["samplers"]) * max(cfg["n_grid"])


def study_check(q, cfg: dict, out: dict) -> List[str]:
    """Every (sampler, N) row is present and finite, replications differ,
    and the quantile MSE at N_max beats plain MC."""
    problems = []
    grid = list(cfg["n_grid"])
    n_max = grid[-1]
    for sampler in cfg["samplers"]:
        rows = [r for r in out["rows"] if r["sampler"] == sampler]
        if [r["n"] for r in rows] != grid:
            problems.append(f"{sampler}: rows for N = {[r['n'] for r in rows]}, expected {grid}")
            continue
        numbers = [k for k in rows[0] if k not in ("sampler", "n", "r")]
        bad = [r["n"] for r in rows if not all(math.isfinite(r[k]) for k in numbers)]
        if bad:
            problems.append(f"{sampler}: non-finite values at N = {bad}")
            continue
        last = rows[-1]
        if last["r"] != cfg["replications"]:
            problems.append(f"{sampler}: R = {last['r']}, expected {cfg['replications']}")
        if not last["mse_stderr"] > 0.0:
            problems.append(f"{sampler}: every replication gave the same estimate at N = {n_max}")
        bound = mc_mse_v(n_max)
        if not last["q_mse"] < bound:
            problems.append(
                f"{sampler}: quantile MSE {last['q_mse']:.3g} at N = {n_max} "
                f"is not below plain MC's {bound:.3g}"
            )
    return problems


def study_fingerprint(out: dict) -> str:
    return out["csv"]


# ---- truth-mc: the streaming pseudorandom truth oracle ----


def truth_config(seed: int, nproc: int) -> dict:
    return {"p": P, "n_truth": 10 ** 7, "seed": seed}


def truth_run(q, cfg: dict) -> dict:
    r = q.mc_truth(q.SanModel(), cfg["p"], cfg["n_truth"], seed=cfg["seed"])
    return {"v": float(r.v), "c": float(r.c), "n": int(r.n)}


def truth_useful_points(cfg: dict) -> int:
    return cfg["n_truth"]


def truth_check(q, cfg: dict, out: dict) -> List[str]:
    problems = []
    if out["n"] != cfg["n_truth"]:
        problems.append(f"truth used n = {out['n']}, asked for {cfg['n_truth']}")
    return problems + check_against_reference(out["v"], out["c"], cfg["n_truth"])


def value_fingerprint(out: dict) -> str:
    return "%.17g %.17g" % (out["v"], out["c"])


# ---- owen-large / shift-large: the `qmcrisk estimate` path ----


def estimate_config(sampler: str, n: int) -> Callable[[int, int], dict]:
    def config(seed: int, nproc: int) -> dict:
        return {"sampler": sampler, "n": n, "dim": 15, "p": P, "seed": seed}

    return config


def estimate_run(q, cfg: dict) -> dict:
    model = q.SanModel()
    pts = q.sample_points(cfg["sampler"], cfg["n"], model.dim, seed=cfg["seed"])
    batch = q.SampleBatch(model.evaluate(pts))
    v = q.quantile_estimate(batch, cfg["p"])
    c = q.shortfall_estimate(batch, cfg["p"])
    return {"v": float(v), "c": float(c), "points": pts}


def estimate_useful_points(cfg: dict) -> int:
    return cfg["n"]


def estimate_check(q, cfg: dict, out: dict) -> List[str]:
    """(v, c) near the reference; every coordinate of the N points puts
    exactly one point in each interval [i/N, (i+1)/N), as a randomized
    Sobol' net must; and the first rows equal a fresh draw for the same
    seed, so the points belong to this seed."""
    pts = np.asarray(out["points"])
    n = cfg["n"]
    if pts.shape != (n, cfg["dim"]):
        return [f"points have shape {pts.shape}, expected {(n, cfg['dim'])}"]
    problems = check_against_reference(out["v"], out["c"], n)
    for j in range(pts.shape[1]):
        col = np.floor(pts[:, j] * n).astype(np.int64)
        if col.min() < 0 or col.max() >= n or np.bincount(col, minlength=n).max() != 1:
            problems.append(f"coordinate {j + 1} is not stratified over {n} intervals")
    m = min(PREFIX_ROWS, n)
    fresh = q.sample_points(cfg["sampler"], m, cfg["dim"], seed=cfg["seed"])
    if not np.array_equal(np.asarray(fresh), pts[:m]):
        problems.append(f"first {m} points differ from a fresh {cfg['sampler']} draw with seed {cfg['seed']}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, int], dict]  # (seed, nproc) -> generated config
    run: Callable[[object, dict], dict]  # (qmcrisk, config) -> output
    useful_points: Callable[[dict], int]
    check: Callable[[object, dict, dict], List[str]]  # problems; empty passes
    fingerprint: Callable[[dict], str]  # identical on every repeat of a config


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "study-rqmc",
            study_config,
            study_run,
            study_useful_points,
            study_check,
            study_fingerprint,
        ),
        Workload(
            "truth-mc",
            truth_config,
            truth_run,
            truth_useful_points,
            truth_check,
            value_fingerprint,
        ),
        Workload(
            "owen-large",
            estimate_config("rqmc-owen", 1 << 19),
            estimate_run,
            estimate_useful_points,
            estimate_check,
            value_fingerprint,
        ),
        Workload(
            "shift-large",
            estimate_config("rqmc-shift", 1 << 20),
            estimate_run,
            estimate_useful_points,
            estimate_check,
            value_fingerprint,
        ),
    )
}
