"""Replicated convergence studies for MC/QMC/RQMC risk estimation.

The harness runs each configured sampler over a grid of sample sizes,
estimates the p-quantile and expected shortfall on every replication,
aggregates bias and MSE against a truth oracle, and emits a CSV table.
Truth comes from a closed form when the model has one, from explicit
values, or from a large pseudorandom run (``mc_truth``).

Reproducibility contract: a given ``ExperimentConfig`` yields a
byte-identical ``ResultTable`` regardless of thread count.  MC replications
draw from a PCG64 stream keyed by the ``SeedSequence`` (master_seed, stream
tag, replication); randomized QMC replication r uses a scramble seed
derived from (master_seed, r).  No key holds N: every sampler's draw is a
prefix of any longer draw, so a study draws a replication once.

Every sampler is a source of points for the one tiled loop,
``lowdisc.tiled`` (``_source``): the PCG64 stream for "mc", the Sobol'
walk with the sampler's step for the others.  Threads come from
``lowdisc.run_tiles`` alone.  One call runs a study's replications on
``min(threads, R)`` workers, one replication per tile; ``tiled`` called
from the main thread (a draw, an ``evaluate``, the truth pilot and pass)
spreads over the usable CPUs, and inside a study worker runs inline.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import astuple, dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bits import check_int, check_seed, child_seed
from .errors import ConfigError, WorkLimitError
from .estimators import check_finite, check_level, order_index, risk_estimates
from .lowdisc import DEFAULT_BIT_DEPTH, check_count, run_tiles, tiled, walk
from .models import Model, model_from_section, parse_key, parse_sections
from .randomize import owen_step, shift_step

# sampler name -> (short name for the CLI and configs, the ``randomize``
# step factory applied to the Sobol' tiles, if any); plain MC draws no
# Sobol' points
SAMPLER_TABLE: Dict[str, Tuple[str, Optional[Callable]]] = {
    "mc": ("mc", None),
    "qmc-sobol": ("sobol", None),
    "rqmc-owen": ("owen", owen_step),
    "rqmc-shift": ("shift", shift_step),
}
SAMPLERS = tuple(SAMPLER_TABLE)

DEFAULT_GRID: Tuple[int, ...] = tuple(2 ** i for i in range(8, 17))

CSV_HEADER = "sampler,N,R,q_mean,q_bias,q_mse,es_mean,es_bias,es_mse,mse_stderr"

# pseudorandom stream tags: MC replications vs truth runs must never collide
_MC_STREAM_TAG = 0x6D63
_TRUTH_STREAM_TAG = 0x74727574

# mc_truth: rows of the pilot, which sets the bracket; rows between
# progress lines; and the most values the bracket may hold
_TRUTH_PILOT = 1 << 19
_PROGRESS_ROWS = 1 << 24
_MAX_BRACKET = 1 << 24
# mc_truth: bins of the grid over the pilot's range, and the half-width of
# the quantile bracket in standard deviations of the pilot's quantile rank
_TRUTH_BINS = 1 << 16
_BRACKET_SIGMAS = 8.0

# below this many total draws the smallest grid point sits in the
# pre-asymptotic regime and is dropped from rate fits
RATE_FIT_MIN_DRAWS = 1 << 12

ProgressFn = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class TruthSpec:
    """Where the reference (v, c) comes from.

    kind "auto" uses the model's closed form, "explicit" takes the given
    values, "mc" runs a large pseudorandom estimation.
    """

    kind: str = "auto"
    v: Optional[float] = None
    c: Optional[float] = None
    n: int = 10 ** 8
    seed: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("auto", "explicit", "mc"):
            raise ConfigError(f"truth: unknown kind {self.kind!r} (expected auto, explicit or mc)")
        if self.kind == "explicit" and (self.v is None or self.c is None):
            raise ConfigError("truth: explicit truth needs both truth_v and truth_c")
        for key, x in (("truth_v", self.v), ("truth_c", self.c)):
            if x is not None and not (isinstance(x, numbers.Real) and math.isfinite(x)):
                raise ConfigError(f"{key}: must be a finite number, got {x!r}")


@dataclass(frozen=True)
class TruthResult:
    v: float
    c: float
    v_stderr: float
    c_stderr: float
    source: str
    n: int


@dataclass(frozen=True)
class ExperimentConfig:
    model: Model
    p: float = 0.1
    samplers: Tuple[str, ...] = SAMPLERS
    n_grid: Tuple[int, ...] = DEFAULT_GRID
    replications: int = 100
    master_seed: int = 0
    truth: TruthSpec = TruthSpec()

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_level(self.p))
        samplers = tuple(self.samplers)
        if not samplers:
            raise ConfigError("samplers: need at least one sampler")
        for i, s in enumerate(samplers):
            if s not in SAMPLER_TABLE:
                raise _unknown_sampler("samplers", s)
            if s in samplers[:i]:
                raise ConfigError(f"samplers: duplicate sampler {s!r}")
        object.__setattr__(self, "samplers", samplers)
        grid = tuple(check_count(n, "n_grid") for n in self.n_grid)
        if not grid:
            raise ConfigError("n_grid: need at least one sample size")
        for n in grid:
            if n & (n - 1):
                raise ConfigError(f"n_grid: sample sizes must be powers of 2, got {n}")
        if list(grid) != sorted(set(grid)):
            raise ConfigError("n_grid: sample sizes must be strictly ascending")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "replications", check_int(self.replications, "replications", 1))
        object.__setattr__(self, "master_seed", check_seed(self.master_seed, "master_seed"))


@dataclass(frozen=True)
class ResultRow:
    sampler: str
    n: int
    r: int
    q_mean: float
    q_bias: float
    q_mse: float
    es_mean: float
    es_bias: float
    es_mse: float
    mse_stderr: float


@dataclass(frozen=True)
class ResultTable:
    rows: Tuple[ResultRow, ...]
    truth: TruthResult

    def for_sampler(self, sampler: str) -> Tuple[ResultRow, ...]:
        return tuple(r for r in self.rows if r.sampler == sampler)

    def to_csv(self) -> str:
        """One row per (sampler, N), 9 significant digits.

        qmc-sobol runs are deterministic: their rows carry R = 1, the mse
        columns hold the squared error of the single run, and mse_stderr
        is 0.
        """
        lines = [CSV_HEADER]
        lines += ["%s,%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" % astuple(row) for row in self.rows]
        return "\n".join(lines) + "\n"


def mc_stream_seed(master_seed: int, replication: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([master_seed, _MC_STREAM_TAG, replication])


def _unknown_sampler(key: str, sampler) -> ConfigError:
    return ConfigError(f"{key}: unknown sampler {sampler!r} (expected one of: {', '.join(SAMPLERS)})")


def sampler_name(token: str, key: str = "samplers") -> str:
    """The sampler a full or short name refers to, ignoring case;
    ConfigError headed by ``key`` (the config key or the flag) if none."""
    name = token.strip().lower()
    for full, (short, _) in SAMPLER_TABLE.items():
        if name in (full, short):
            return full
    raise _unknown_sampler(key, token)


def _check_draw(sampler: str, n: int, dim: int, seed: int, replication: int) -> Tuple[int, int, int, int]:
    """n, dim, seed and replication as ints; ConfigError for a bad sampler or a bad one of them."""
    if sampler not in SAMPLER_TABLE:
        raise _unknown_sampler("sampler", sampler)
    return check_count(n), check_int(dim, "dim", 1), check_seed(seed), check_seed(replication, "replication")


def _stream(seq: np.random.SeedSequence, dim: int, first: int = 0) -> Callable[[int], Callable]:
    """The ``lowdisc.tiled`` source of rows first, first + 1, ... of the
    stream ``Generator(PCG64(seq)).random((rows, dim))``.

    ``random`` takes one draw per double and ``PCG64.advance`` counts
    draws, so a generator standing at row ``at`` of the stream reaches row
    r by advancing (r - at) * dim.  Each worker has its own generator,
    jumped to each of its tiles in turn, and one row-major block to draw
    a tile's rows into, unless they go to the output; the kernel then
    overwrites that block.  So the rows are those of the one stream for
    any worker count.
    """

    def source(rows: int) -> Callable:
        bitgen = np.random.PCG64(seq)
        gen = np.random.Generator(bitgen)
        tile = np.empty((rows, dim))
        at = 0

        def read(start: int, m: int, y: np.ndarray, rows_out: Optional[np.ndarray]) -> Optional[np.ndarray]:
            nonlocal at
            bitgen.advance((first + start - at) * dim)
            at = first + start + m
            return gen.random(out=tile[:m] if rows_out is None else rows_out).T

        return read

    return source


def _source(sampler: str, dim: int, seed: int, replication: int, n: int) -> Callable[[int], Callable]:
    """The ``lowdisc.tiled`` source of a sampler's replication of n points:
    the PCG64 stream keyed by (seed, replication) for "mc", else the
    Sobol' walk with the sampler's step, keyed by the replication's seed."""
    if sampler == "mc":
        return _stream(mc_stream_seed(seed, replication), dim)
    factory = SAMPLER_TABLE[sampler][1]
    return walk(dim, None if factory is None else factory(dim, child_seed(seed, replication), n))


def sample_points(
    sampler: str,
    n: int,
    dim: int,
    seed: int = 0,
    replication: int = 0,
) -> np.ndarray:
    """Generate an (n, dim) batch in [0,1) for the named sampler.

    "mc" takes the first n rows of a PCG64 stream keyed by (seed,
    replication); the QMC samplers take the first n points of the digital
    sequence, randomized per the sampler name tile by tile.  So for every
    sampler a draw of n points is the first n points of any longer draw.
    """
    n, dim, seed, replication = _check_draw(sampler, n, dim, seed, replication)
    return tiled(n, dim, _source(sampler, dim, seed, replication, n))


def sample_losses(model: Model, sampler: str, n: int, seed: int = 0, replication: int = 0) -> np.ndarray:
    """``model.evaluate(sample_points(sampler, n, model.dim, seed,
    replication))``, bit for bit, with no (n, dim) point array.

    The model's rows are independent, so ``lowdisc.tiled`` evaluates each
    tile of the sampler's source as it is made: the walk's, in which
    ``model.tile_losses`` works, or the PCG64 stream's.  The draw holds the
    n losses and tile-sized blocks only; like the points, the losses of n
    points are the first n losses of any longer draw.
    """
    n, dim, seed, replication = _check_draw(sampler, n, model.dim, seed, replication)
    return tiled(n, dim, _source(sampler, dim, seed, replication, n), model.tile_losses)


def resolve_truth(model: Model, p: float, spec: TruthSpec, progress: ProgressFn = None) -> TruthResult:
    p = check_level(p)
    if spec.kind == "explicit":
        return TruthResult(float(spec.v), float(spec.c), 0.0, 0.0, "explicit", 0)
    if spec.kind == "mc":
        return mc_truth(model, p, spec.n, seed=spec.seed, progress=progress)
    v = model.true_quantile(p)
    c = model.true_shortfall(p)
    if v is None or c is None:
        raise ConfigError(
            "truth: model has no closed form; set truth = mc or give truth_v and truth_c"
        )
    return TruthResult(float(v), float(c), 0.0, 0.0, "closed-form", 0)


def _edge(b: int, lo: float, inv_h: float) -> float:
    """The least double x whose grid coordinate ``(x - lo) * inv_h`` is at
    least b.  The rounded coordinate is monotone in x, so for every double
    x, ``(x - lo) * inv_h < b`` exactly when ``x < _edge(b, lo, inv_h)``."""
    x = lo + b / inv_h
    while (x - lo) * inv_h >= b:
        x = math.nextafter(x, -math.inf)
    while (x - lo) * inv_h < b:
        x = math.nextafter(x, math.inf)
    return x


def _reduce_tile(x: np.ndarray, e_lo: float, e_hi: float, pivot: float) -> Tuple[int, float, float, np.ndarray, float, float]:
    """A tile's share of a truth pass whose bracket is [e_lo, e_hi): the
    count of the values below it, the sums of ``pivot - x`` and of its
    square over them, the values inside it in row order, the least value
    below it (inf if none) and the greatest value.

    Three calls see the whole tile: the mask ``x < e_hi``, its gather and
    the maximum; the rest splits the gathered values, which a bracket near
    the quantile keeps few.  The values below reach the sums in row order,
    as a gather of the whole tile would give them, so the sums are the
    same pairwise sums, bit for bit.  The gathers are ``compress``: on a
    tile of losses, whose mask no branch predictor learns, ``x[mask]``
    took 22 us of an 8192-row tile's 52 us reduction (one worker, 2-core
    host), and ``compress`` takes the same values in about half the time.
    """
    xs = x.compress(x < e_hi)
    below = xs < e_lo
    low = xs.compress(below)
    d = pivot - low
    low_min = float(low.min()) if low.size else math.inf
    return d.size, float(d.sum()), float((d * d).sum()), xs.compress(~below), low_min, float(x.max())


def mc_truth(model: Model, p: float, n_truth: int, seed: int = 1, progress: ProgressFn = None) -> TruthResult:
    """Large-sample pseudorandom reference values for (v, c).

    One streaming pass over a PCG64 stream.  Its first ``_TRUTH_PILOT``
    rows, m of them, are the pilot: a grid of ``_TRUTH_BINS`` bins spans
    the pilot's range (5% margin each side), and the pilot's order
    statistics at ranks k0 +- ``_BRACKET_SIGMAS`` * sqrt(m p (1 - p)), with
    k0 = ceil(p m), widened to the edges of their bins, bracket the
    p-quantile.  The pass counts the values below the bracket, accumulates
    their shortfall sums pivoted at its lower edge and keeps the values
    inside it; v is then the exact k-th order statistic, selected among
    the kept values.  Exactly ``n_truth`` rows are drawn and evaluated;
    ``n_truth`` must lie in 10^6..2^52, whose upper end bounds every count
    in the package.  If the quantile falls outside the bracket, the stream
    is replayed once from row 0 with the bracket extended to the extreme
    value on that side.  A bracket holding more than ``_MAX_BRACKET``
    values raises WorkLimitError.  The density behind ``v_stderr`` is the
    count of values in v's grid bin.

    The pilot and each pass are one ``lowdisc.tiled`` loop over the
    stream, whose tiles ``lowdisc.run_tiles`` runs on every usable CPU
    from the main thread and inline from any other.  A bin of the grid is
    a set of doubles [e(b), e(b + 1)), e(b) the least double whose grid
    coordinate ``(x - lo) * inv_h`` is at least b (``_edge``), so a pass
    computes its bracket's two edges once and compares values, never
    grid coordinates.  It reduces each tile where it is drawn into that
    tile's slot (``_reduce_tile``): the count below the bracket, the two
    pivoted sums in row order, the values inside it, the least value
    below it and the tile's maximum; the calling thread adds the slots
    up in row order.  A lock-guarded tally of kept values and finished
    rows raises the WorkLimitError, whose total is fixed, and sends a
    progress line at each multiple of ``_PROGRESS_ROWS`` rows.  So the
    result, the error and the progress lines do not depend on the worker
    count, and the tiling moves c by summation roundoff alone.
    """
    p = check_level(p)
    seed = check_seed(seed)
    # at least 10^6 rows, so the pilot is never the whole stream
    n_truth = check_count(check_int(n_truth, "truth_n", 10 ** 6, why="for a stable bracket"))
    k = order_index(p, n_truth)
    seq = np.random.SeedSequence([seed, _TRUTH_STREAM_TAG])

    pilot = tiled(_TRUTH_PILOT, model.dim, _stream(seq, model.dim), model.tile_losses)
    pmin, pmax = float(pilot.min()), float(pilot.max())
    span = pmax - pmin
    if span <= 0.0:
        span = max(abs(pmin), 1.0)
    lo = pmin - 0.05 * span
    hi = pmax + 0.05 * span
    h = (hi - lo) / _TRUTH_BINS
    inv_h = _TRUTH_BINS / (hi - lo)

    def grid_bin(x: float) -> int:
        return math.floor((x - lo) * inv_h)

    m = pilot.size
    k0 = order_index(p, m)
    width = _BRACKET_SIGMAS * math.sqrt(m * p * (1.0 - p))
    ranks = [max(1, math.floor(k0 - width)) - 1, min(m, math.ceil(k0 + width)) - 1]
    first, last = np.partition(pilot, ranks)[ranks]
    # the bracket holds the values whose grid coordinate lies in [b_lo, b_hi)
    b_lo, b_hi = grid_bin(first), grid_bin(last) + 1

    def bracket(b_lo: int, b_hi: int) -> Tuple[float, float, float]:
        """The doubles e_lo, e_hi with grid coordinate in [b_lo, b_hi)
        exactly when x lies in [e_lo, e_hi), and the pivot of the sums."""
        return _edge(b_lo, lo, inv_h), _edge(b_hi, lo, inv_h), lo + b_lo * h

    def one_pass(edges: Tuple[float, float, float], start: int, slots: dict):
        """The ``_reduce_tile`` in ``slots`` and of the tiles of rows
        start..n_truth - 1 added up: the sums exactly rounded, the kept
        values in row order."""
        lock = threading.Lock()
        n_kept = sum(stats[3].size for stats in slots.values())
        done = start

        def sink(s: int, x: np.ndarray) -> None:
            nonlocal n_kept, done
            stats = _reduce_tile(x, *edges)
            with lock:
                slots[s] = stats
                n_kept += stats[3].size
                if n_kept > _MAX_BRACKET:
                    raise WorkLimitError(f"quantile bracket holds more values than the budget of {_MAX_BRACKET}")
                done += x.size
                for mark in range((done - x.size) // _PROGRESS_ROWS + 1, done // _PROGRESS_ROWS + 1):
                    if progress is not None:
                        progress(f"truth pass: {mark * _PROGRESS_ROWS}/{n_truth} rows")

        tiled(n_truth - start, model.dim, _stream(seq, model.dim, start), model.tile_losses, sink)
        below, s1, s2, kept, low_mins, maxs = zip(*(slots[s] for s in sorted(slots)))
        return sum(below), math.fsum(s1), math.fsum(s2), np.concatenate(kept), min(low_mins), max(maxs)

    edges = bracket(b_lo, b_hi)
    head = _reduce_tile(pilot, *edges)
    del pilot
    below, s1, s2, kept, low_min, gmax = one_pass(edges, m, {-1: head})
    j = k - below
    if not 1 <= j <= kept.size:
        # the quantile lies outside the bracket: replay the stream with the
        # bracket extended to the extreme value on that side, which holds
        # it; below the bracket there are then k >= 1 values, so the least
        # of them is the stream's minimum
        if j < 1:
            b_lo = grid_bin(low_min)
        else:
            b_hi = grid_bin(gmax) + 1
        below, s1, s2, kept, _, _ = one_pass(bracket(b_lo, b_hi), 0, {})
        j = k - below
    v = float(np.partition(kept, j - 1)[j - 1])

    # re-center the pivoted shortfall sums at v
    shift = v - (lo + b_lo * h)
    d2 = np.maximum(v - kept, 0.0)
    total_s1 = (s1 + below * shift) + float(d2.sum())
    total_s2 = (s2 + 2.0 * shift * s1 + below * shift * shift) + float((d2 * d2).sum())
    c = v - total_s1 / (p * n_truth)

    mean_pos = total_s1 / n_truth
    var_pos = max(total_s2 / n_truth - mean_pos * mean_pos, 0.0)
    # every value of v's bin lies inside the bracket, whose edges are bin edges
    hit = grid_bin(v)
    in_bin = (kept >= _edge(hit, lo, inv_h)) & (kept < _edge(hit + 1, lo, inv_h))
    density = int(np.count_nonzero(in_bin)) / (n_truth * h)
    v_stderr = math.sqrt(p * (1.0 - p) / n_truth) / density
    c_stderr = math.sqrt(var_pos / n_truth) / p
    return TruthResult(v, c, v_stderr, c_stderr, "mc", n_truth)


def run_convergence(cfg: ExperimentConfig, threads: Optional[int] = None, progress: ProgressFn = None) -> ResultTable:
    """Run the replicated study and aggregate bias/MSE per (sampler, N).

    All samplers draw and evaluate the largest grid size once per
    replication and reuse prefixes of the losses for the smaller sizes; a
    draw is a prefix of any longer draw and evaluation is pointwise, so
    each prefix is bit-identical to drawing and evaluating that size
    directly, but one sampler's rows are not independent across N.
    ``threads`` (None for serial) must be >= 1.  All samplers'
    replications, in config order, are the tiles of one ``run_tiles`` call
    on ``min(threads, R)`` workers.  A sampler's progress line follows its
    last replication and every earlier sampler's line; the rows are
    aggregated once the call returns.
    """
    if threads is not None:
        threads = check_int(threads, "threads", 1)
    model = cfg.model
    truth = resolve_truth(model, cfg.p, cfg.truth, progress=progress)
    if progress is not None:
        progress(f"truth ({truth.source}): v={truth.v:.9g} c={truth.c:.9g}")

    grid = cfg.n_grid
    n_max = grid[-1]

    reps_of = {s: 1 if s == "qmc-sobol" else cfg.replications for s in cfg.samplers}
    jobs = [(sampler, r) for sampler in cfg.samplers for r in range(reps_of[sampler])]
    # per sampler, the quantile and the shortfall estimates by replication and N
    est = {s: np.empty((2, reps_of[s], len(grid))) for s in cfg.samplers}
    # replications still to finish per sampler, and the samplers whose
    # progress line is still to come, in config order
    lock = threading.Lock()
    left = dict(reps_of)
    unreported = list(cfg.samplers)

    def run_rep(job: int, _: int) -> None:
        sampler, r = jobs[job]
        losses = check_finite(sample_losses(model, sampler, n_max, cfg.master_seed, r))
        for j, n in enumerate(grid):
            est[sampler][:, r, j] = risk_estimates(losses[:n], cfg.p)
        with lock:
            left[sampler] -= 1
            while unreported and not left[unreported[0]]:
                done = unreported.pop(0)
                if progress is not None:
                    progress(f"{done}: {reps_of[done]} replication(s) done")

    # one stream, so one pool: with a pool per sampler, the second pool's
    # threads could start before the first's had exited, and glibc then gave
    # one of them a new malloc arena, whose freed blocks stayed resident (a
    # fourth arena and 10 MiB more peak RSS in 2 of 14 processes of 20
    # studies each at 2^16 x 15)
    run_tiles(len(jobs), 1, lambda: run_rep, min(threads or 1, max(reps_of.values())))
    rows: List[ResultRow] = []
    for sampler in cfg.samplers:
        reps = reps_of[sampler]
        est_q, est_c = est[sampler]
        for j, n in enumerate(grid):
            q = est_q[:, j]
            c = est_c[:, j]
            q_sqerr = (q - truth.v) ** 2
            c_sqerr = (c - truth.c) ** 2
            stderr = float(q_sqerr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
            rows.append(
                ResultRow(
                    sampler=sampler,
                    n=n,
                    r=reps,
                    q_mean=float(q.mean()),
                    q_bias=float(q.mean() - truth.v),
                    q_mse=float(q_sqerr.mean()),
                    es_mean=float(c.mean()),
                    es_bias=float(c.mean() - truth.c),
                    es_mse=float(c_sqerr.mean()),
                    mse_stderr=stderr,
                )
            )
    return ResultTable(tuple(rows), truth)


def fit_rate(ns: Sequence[float], errors: Sequence[float]) -> Tuple[float, float]:
    """OLS fit of log2(error) on log2(N); slope is the convergence order."""
    ns_arr = np.asarray(ns, dtype=np.float64)
    err_arr = np.asarray(errors, dtype=np.float64)
    if ns_arr.size != err_arr.size:
        raise ConfigError("fit_rate: ns and errors must have equal length")
    if ns_arr.size < 3:
        raise ConfigError(f"fit_rate: need at least 3 grid points, got {ns_arr.size}")
    if np.any(err_arr <= 0.0) or not np.all(np.isfinite(err_arr)):
        raise ConfigError("fit_rate: errors must be positive and finite for a log-log fit")
    slope, intercept = np.polyfit(np.log2(ns_arr), np.log2(err_arr), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class RateFit:
    sampler: str
    metric: str
    slope: float
    intercept: float
    ns: Tuple[int, ...]
    excluded: Tuple[int, ...]


def rate_summary(table: ResultTable, metric: str = "q_mse") -> Dict[str, RateFit]:
    """Per-sampler log-log rate fits of one MSE column.

    Leading grid points with fewer than RATE_FIT_MIN_DRAWS total draws
    (R*N) sit visibly above the asymptote and are excluded; exclusions are
    reported in the fit record.
    """
    if metric not in ("q_mse", "es_mse"):
        raise ConfigError(f"metric: expected q_mse or es_mse, got {metric!r}")
    fits: Dict[str, RateFit] = {}
    for sampler in dict.fromkeys(row.sampler for row in table.rows):
        rows = table.for_sampler(sampler)
        cut = 0
        while cut < len(rows) - 3 and rows[cut].r * rows[cut].n < RATE_FIT_MIN_DRAWS:
            cut += 1
        used = rows[cut:]
        slope, intercept = fit_rate(
            [row.n for row in used], [getattr(row, metric) for row in used]
        )
        fits[sampler] = RateFit(
            sampler=sampler,
            metric=metric,
            slope=slope,
            intercept=intercept,
            ns=tuple(row.n for row in used),
            excluded=tuple(row.n for row in rows[:cut]),
        )
    return fits


# the truth keys, each read by one truth kind only
_TRUTH_KEY_KINDS = {"truth_v": "explicit", "truth_c": "explicit", "truth_n": "mc", "truth_seed": "mc"}
_EXPERIMENT_KEYS = {"p", "samplers", "n_grid", "replications", "master_seed", "truth", *_TRUTH_KEY_KINDS}


def parse_count(raw: str, name: str) -> int:
    """A sample count: a plain integer, 2^k (k >= 0), or a float literal
    like 1e8 with an integer value; ``name`` (the flag or key) heads the
    error.  2^k for k > 63 reads as 2^63, past every range a count may
    take, so no k-bit integer is ever built."""
    token = raw.strip()
    try:
        if token.startswith("2^"):
            k = int(token[2:])
            if k < 0:
                raise ValueError
            return 1 << min(k, 63)
        if any(ch in token for ch in ".eE"):
            value = float(token)
            if value != int(value):
                raise ValueError
            return int(value)
        return int(token)
    except (ValueError, OverflowError):
        raise ConfigError(f"{name}: expected an integer, 2^k or 1e8-style literal, got {raw!r}") from None


def _parse_grid_tokens(raw: str) -> Tuple[int, ...]:
    grid: List[int] = []
    for token in raw.replace(",", " ").split():
        if ".." in token:
            first, last = token.split("..", 1)
            a, b = parse_count(first, "n_grid"), parse_count(last, "n_grid")
            if a < 1 or a & (a - 1) or b & (b - 1) or b < a or b > 1 << DEFAULT_BIT_DEPTH:
                raise ConfigError(f"n_grid: bad range {token!r}")
            grid.extend(1 << k for k in range(a.bit_length() - 1, b.bit_length()))
        else:
            grid.append(parse_count(token, "n_grid"))
    return tuple(grid)


def load_experiment(text: str) -> ExperimentConfig:
    """Parse an experiment config: an [experiment] section plus a [model] section.

    A document with only a [model] section runs with the experiment
    defaults (p=0.1, all samplers, N = 2^8..2^16, R=100).
    """
    parser = parse_sections(text)
    if not parser.has_section("model"):
        raise ConfigError("model: experiment config needs a [model] section")
    model = model_from_section(parser["model"])

    kwargs: Dict[str, object] = {}
    truth_kw: Dict[str, object] = {}
    if parser.has_section("experiment"):
        section = parser["experiment"]
        for key in section:
            if key not in _EXPERIMENT_KEYS:
                raise ConfigError(f"{key}: unknown key in [experiment]")
        seed = partial(int, base=0)  # 0x10 reads as 16
        if "p" in section:
            kwargs["p"] = parse_key(section, "p")
        if "replications" in section:
            kwargs["replications"] = parse_count(section["replications"], "replications")
        if "master_seed" in section:
            kwargs["master_seed"] = parse_key(section, "master_seed", seed, "an integer")
        if "truth_n" in section:
            truth_kw["n"] = parse_count(section["truth_n"], "truth_n")
        if "truth_seed" in section:
            truth_kw["seed"] = parse_key(section, "truth_seed", seed, "an integer")
        for key, field in (("truth_v", "v"), ("truth_c", "c")):
            if key in section:
                truth_kw[field] = parse_key(section, key)
        if "samplers" in section:
            tokens = section["samplers"].replace(",", " ").split()
            kwargs["samplers"] = tuple(sampler_name(token) for token in tokens)
        if "n_grid" in section:
            kwargs["n_grid"] = _parse_grid_tokens(section["n_grid"])
        if "truth" in section:
            truth_kw["kind"] = section["truth"].strip().lower()
        elif "v" in truth_kw or "c" in truth_kw:
            truth_kw["kind"] = "explicit"
    truth = kwargs["truth"] = TruthSpec(**truth_kw)
    for key, kind in _TRUTH_KEY_KINDS.items():
        if parser.has_option("experiment", key) and truth.kind != kind:
            raise ConfigError(f"{key}: only truth = {kind} reads it, not truth = {truth.kind}")
    return ExperimentConfig(model=model, **kwargs)
