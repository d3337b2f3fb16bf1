"""Base-2 digital sequences and point-set quality checks.

Generates van der Corput and Sobol' points (Joe-Kuo direction numbers),
verifies the digital-net property by exhaustive elementary-interval
counting, and computes the exact one-dimensional star discrepancy.

Coordinates are exact dyadic rationals with at most 52 binary digits, so
every value is an exact double.  Generation is deterministic and has the
prefix property: the first n points of a longer run are byte-identical to
a run of n points.  ``walk`` is the one place where the 52-bit integers
become floats, one tile at a time, so it never holds a second N x d array;
given a sink, which takes each float tile in turn, it holds none.
``in_order`` is the package's one thread pool, for the walk, the truth
pass and the study alike.  Called from the main thread on a large enough
draw, ``walk`` spreads its tiles over one thread per usable CPU; from any
other thread, such as an ``in_order`` task's, it runs inline.  Each tile
depends on its own indices or input rows alone, so the output is the same
for any CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import ConfigError, PrecisionError, WorkLimitError

DEFAULT_BIT_DEPTH = 52

# Hard cap on is_net work: compositions(m - t, d) * b**m cell increments.
WORK_LIMIT = 10**9

_BUNDLED_TABLE = "joe-kuo-64.txt"

# Coordinates per tile of ``walk``, at most.  Every numpy call thus covers
# about 2^16 coordinates (512 KiB).  That size is a constant, not a
# setting, chosen for the two ``in_order`` uses that run tiles concurrently,
# the study's replications and the walk's workers: smaller calls hand the GIL
# back so often that the threads stop overlapping, and larger tiles leave
# the cache.  On a 2-core host with numpy 2.4.6, two threads ran eight
# 2^16 x 15 Owen scrambles in 0.94 s at 2^16 coordinates per tile, against
# 1.12 s at 2^17, 1.32 s at 2^15 and 2.17 s at 2^14 (slower than one
# thread); one 2^19 x 15 scramble took 1.5-1.8 s at every size from 2^14
# to 2^17.  One 2^19 x 15 Owen walk on two threads against one, best of 3
# in four alternating runs, ran 0.93-1.30x as fast at 2048-row tiles,
# 1.15-1.72x at 4096 and 1.44-1.76x at 8192, likely because each tile
# costs about 100 numpy calls whose Python overhead holds the GIL.  So
# every worker of the walk's pool keeps a full tile rather than a share of
# one.  Tiling changes no output bit, since each coordinate's value
# depends on that coordinate's index or input alone.
_TILE_COORDS = 1 << 16

# Tiles per worker of the walk's pool, at least.  Each worker holds three
# tiles of scratch, so the pool's scratch stays within 3/16 of the output,
# and a 2^16 x 15 draw (16 tiles, the study's largest size) stays on one
# thread.  With no floor, two workers took the tracemalloc peak of an Owen
# scramble, a digital shift or an Owen draw of that size to 1.55-1.59x the
# output, against 1.26-1.38x on one thread.
_TILES_PER_WORKER = 16


@lru_cache(maxsize=None)
def _directions(dim: int) -> np.ndarray:
    """Direction integers of Sobol' dimensions 1..dim as a (dim, 52) array.

    Row j-1 holds V_k = m_k * 2^(52 - k), k = 1..52, for dimension j.
    Dimension 1 uses the identity generator matrix, which reproduces the
    van der Corput sequence; dimension j >= 2 comes from line j of the
    bundled Joe-Kuo table, ``d s a m_1 ... m_s`` (the first line is a
    header).
    """
    nb = DEFAULT_BIT_DEPTH
    text = resources.files("qmcrisk.data").joinpath(_BUNDLED_TABLE).read_text()
    lines = text.splitlines()[1:]
    if not 1 <= dim <= len(lines) + 1:
        raise ConfigError(f"dimension {dim} outside the direction-number table's range 1..{len(lines) + 1}")
    v = np.empty((dim, nb), dtype=np.uint64)
    v[0] = [1 << (nb - k) for k in range(1, nb + 1)]
    for j, line in enumerate(lines[: dim - 1], start=1):
        _, s, a, *m = (int(tok) for tok in line.split())
        for k in range(s + 1, nb + 1):
            # m_k = 2 a_1 m_{k-1} ^ ... ^ 2^{s-1} a_{s-1} m_{k-s+1}
            #       ^ 2^s m_{k-s} ^ m_{k-s}
            mk = m[k - s - 1] ^ (m[k - s - 1] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    mk ^= m[k - i - 1] << i
            m.append(mk)
        v[j] = [mk << (nb - k) for k, mk in enumerate(m, start=1)]
    v.setflags(write=False)
    return v


def grid_integers(coords: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Coordinates times 2^52, cast into the uint64 ``out``.

    Raises PrecisionError if any coordinate is not exactly representable
    with 52 binary digits, i.e. if any scaled value is not an integer.
    """
    scaled = coords * 2.0 ** DEFAULT_BIT_DEPTH
    np.copyto(out, scaled, casting="unsafe")
    if not np.array_equal(out, scaled):
        raise PrecisionError(
            f"coordinates are not dyadic with {DEFAULT_BIT_DEPTH} bits; "
            "only base-2 generated point sets can be used here"
        )
    return out


@dataclass(frozen=True)
class PointSet:
    """An ordered batch of N points in [0,1)^d."""

    points: np.ndarray  # (N, d) float64

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ConfigError("points must be a nonempty (N, d) array")
        # written so that NaN coordinates fail the check too
        if np.any(pts < 0.0) or not np.all(pts < 1.0):
            raise ConfigError("all coordinates must lie in [0, 1)")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_array(cls, arr) -> "PointSet":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        return cls(points=a)

    def as_integers(self) -> np.ndarray:
        """Coordinates on the 2^52 dyadic grid, as uint64; PrecisionError
        if any coordinate is not exact with 52 binary digits."""
        return grid_integers(self.points, np.empty(self.points.shape, dtype=np.uint64))


def radical_inverse(i: int, b: int = 2) -> float:
    """Base-b digit reversal of a nonnegative integer, in [0,1)."""
    if i < 0:
        raise ConfigError("index must be nonnegative")
    if b < 2:
        raise ConfigError("base must be >= 2")
    r = 0.0
    f = 1.0 / b
    while i > 0:
        i, digit = divmod(i, b)
        r += digit * f
        f /= b
    return r


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def in_order(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """fn of each item in the items' order: inline for one worker, else on
    a pool of ``workers`` threads made for this call, with at most
    ``workers + 1`` items submitted and not yet yielded.  The pool is shut
    down, queued items cancelled and threads joined, before the iterator
    ends, raises or is closed; a consumer that may raise should close it."""
    if workers == 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def check_count(n: int) -> None:
    """ConfigError unless 1 <= n <= 2^52, the generator's range; the message
    leaves n out, since a larger n may be too long to print."""
    if not 1 <= n <= 1 << DEFAULT_BIT_DEPTH:
        raise ConfigError(f"count: must lie in 1..2^{DEFAULT_BIT_DEPTH}, the generator's range")


def walk(
    n: int,
    dim: int,
    step: Optional[Callable] = None,
    points: Optional[np.ndarray] = None,
    sink: Optional[Callable] = None,
) -> Optional[np.ndarray]:
    """An (n, dim) float array filled one (dim, r) uint64 tile at a time,
    with r = 2^floor(log2(_TILE_COORDS / dim)) or the power of two covering n.

    The tiles hold the first n Sobol' points or the integers of ``points``
    (PrecisionError if one is not dyadic).  ``step(x, z, t)``, if given,
    changes the tile ``x`` in place, with scratch blocks ``z`` and ``t``;
    it must change no state of its own, since several threads may run it
    at once.
    The Sobol' tile at s, a multiple of r, is the first r points XORed with
    the XOR of V_k over the set bits k of s: s and i < r share no bits.

    With ``sink``, no output array exists: each tile's (m, dim) float rows,
    from row ``start`` on, go to ``sink(start, u)`` and the walk returns
    None.  ``u`` is a view of the worker's scratch, valid until the call
    returns; ``sink`` must be safe to call from several threads at once.

    Called from the main thread, the walk runs its workers through
    ``in_order``, one per usable CPU with at least ``_TILES_PER_WORKER``
    tiles each.  Worker w takes tiles w, w + workers, ... with its own x, z
    and t and writes their disjoint rows of the output; a worker that
    raises stops the others before their next tile.  Called from any other
    thread, such as an ``in_order`` task, it runs inline.
    """
    nb = DEFAULT_BIT_DEPTH
    if points is None:
        v = _directions(dim)
        check_count(n)
    rows = min(1 << max(0, (_TILE_COORDS // dim).bit_length() - 1), 1 << (n - 1).bit_length())
    starts = range(0, n, rows)
    workers = 1
    if threading.current_thread() is threading.main_thread():
        workers = max(1, min(_usable_cpus(), len(starts) // _TILES_PER_WORKER))
    # every worker's x, z and t (and float tile, for a sink) in one block
    # allocated here: allocated on the workers themselves (in per-thread
    # malloc arenas), they raised the peak RSS of a 2^19 x 15 Owen draw on
    # two workers by 3.8-4.4 MiB over one thread, against 1.1-1.4 MiB
    scratch = np.empty((workers, 3 if sink is None else 4, dim, rows), dtype=np.uint64)
    if points is None:
        # the first `rows` points, by doubling: points h..2h-1 are 0..h-1 ^ V_k
        lead = np.zeros((dim, rows), dtype=np.uint64)
        for k in range(rows.bit_length() - 1):
            h = 1 << k
            np.bitwise_xor(lead[:, :h], v[:, k : k + 1], out=lead[:, h : 2 * h])
    out = np.empty((n, dim)) if sink is None else None
    failed = threading.Event()

    def fill(w: int) -> None:
        x, z, t = scratch[w, :3]
        try:
            for start in starts[w::workers]:
                if failed.is_set():
                    return
                m = min(rows, n - start)
                if points is None:
                    word = np.bitwise_xor.reduce(v[:, [k for k in range(nb) if start >> k & 1]], axis=1, keepdims=True)
                    np.bitwise_xor(lead[:, :m], word, out=x[:, :m])
                else:
                    grid_integers(points[start : start + m].T, x[:, :m])
                if step is not None:
                    step(x[:, :m], z[:, :m], t[:, :m])
                if sink is None:
                    np.multiply(x[:, :m].T, 2.0 ** -nb, out=out[start : start + m])
                else:
                    u = scratch[w, 3].view(np.float64)[:, :m]
                    np.multiply(x[:, :m], 2.0 ** -nb, out=u)
                    sink(start, u.T)
        except BaseException:
            failed.set()
            raise

    list(in_order(fill, range(workers), workers))
    return out


def sobol_points(n: int, dim: int) -> PointSet:
    """The first n points of the base-2 Sobol' sequence in dim dimensions.

    Point i is the XOR of the direction integers V_k over the set bits k of
    i.  Dimension 1 is the van der Corput sequence (radical inverse base
    2); point 0 is the origin.  Coordinates are exact multiples of 2^-52.
    """
    return PointSet(points=walk(n, dim))


def van_der_corput_points(n: int) -> PointSet:
    """First dimension of the Sobol' sequence: the base-2 radical inverse."""
    return sobol_points(n, 1)


@dataclass(frozen=True)
class NetParams:
    """Parameters of the digital-net property to verify."""

    t: int
    m: int
    d: int
    b: int = 2

    def __post_init__(self) -> None:
        if self.t < 0 or self.m < 0 or self.t > self.m:
            raise ConfigError(f"need 0 <= t <= m, got t={self.t}, m={self.m}")
        if self.d < 1:
            raise ConfigError("d must be positive")
        if self.b < 2:
            raise ConfigError("base must be >= 2")


@dataclass(frozen=True)
class IntervalWitness:
    """One offending elementary interval: its box and its point count."""

    shape: tuple[int, ...]  # digit counts k_1..k_d
    cell: tuple[int, ...]  # cell coordinates t_1..t_d
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    count: int
    expected: int


@dataclass(frozen=True)
class NetCheckResult:
    ok: bool
    params: NetParams
    witness: Optional[IntervalWitness] = None

    def __bool__(self) -> bool:
        return self.ok


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All vectors of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _cell_indices(coords: np.ndarray, k: int, b: int, ints: Optional[np.ndarray]) -> np.ndarray:
    if k == 0:
        return np.zeros(len(coords), dtype=np.int64)
    if ints is not None:
        # exact for dyadic points in base 2
        return (ints >> np.uint64(DEFAULT_BIT_DEPTH - k)).astype(np.int64)
    cells = np.floor(coords * float(b) ** k).astype(np.int64)
    return np.minimum(cells, b**k - 1)


def is_net(ps: PointSet, params: NetParams) -> NetCheckResult:
    """Exhaustively verify the (t,m,d)-net property in base b.

    Enumerates every shape vector (k_1..k_d) with sum m-t and counts points
    in every cell of the induced partition; passes iff every cell holds
    exactly b^t points.  On failure the result carries one offending
    interval and its count.
    """
    t, m, d, b = params.t, params.m, params.d, params.b
    if ps.dim != d:
        raise ConfigError(f"point set has dimension {ps.dim}, expected {d}")
    n_expected = b**m
    if ps.n != n_expected:
        raise ConfigError(f"point set has {ps.n} points, expected b^m = {n_expected}")

    n_shapes = math.comb(m - t + d - 1, d - 1)
    if n_shapes * n_expected > WORK_LIMIT:
        raise WorkLimitError(
            f"verification needs {n_shapes * n_expected:.2e} cell increments "
            f"(limit {WORK_LIMIT:.0e})"
        )

    ints = None
    if b == 2:
        try:
            ints = ps.as_integers()
        except PrecisionError:
            ints = None  # non-dyadic input: fall back to float binning
    n_cells = b ** (m - t)
    expected = b**t
    for shape in _compositions(m - t, d):
        cell = np.zeros(ps.n, dtype=np.int64)
        for j, k in enumerate(shape):
            col_ints = ints[:, j] if ints is not None else None
            cell = cell * (b**k) + _cell_indices(ps.points[:, j], k, b, col_ints)
        counts = np.bincount(cell, minlength=n_cells)
        bad = np.nonzero(counts != expected)[0]
        if bad.size:
            flat = int(bad[0])
            # decode mixed-radix flat index back to per-dimension cells
            cells = []
            rem = flat
            for k in reversed(shape):
                rem, tj = divmod(rem, b**k)
                cells.append(tj)
            cells.reverse()
            lower = tuple(tj / b**k for tj, k in zip(cells, shape))
            upper = tuple((tj + 1) / b**k for tj, k in zip(cells, shape))
            witness = IntervalWitness(
                shape=shape,
                cell=tuple(cells),
                lower=lower,
                upper=upper,
                count=int(counts[flat]),
                expected=expected,
            )
            return NetCheckResult(ok=False, params=params, witness=witness)
    return NetCheckResult(ok=True, params=params)


def find_t(ps: PointSet, m: int, d: int, b: int = 2) -> int:
    """Smallest t for which the point set is a (t,m,d)-net in base b.

    Terminates because t = m always passes (the whole cube is the only
    elementary interval of volume 1).
    """
    for t in range(m + 1):
        if is_net(ps, NetParams(t=t, m=m, d=d, b=b)).ok:
            return t
    raise AssertionError("unreachable: t = m must pass")


def star_discrepancy_1d(ps: PointSet) -> float:
    """Exact star discrepancy of a one-dimensional point set.

    max over sorted points x_(1) <= ... <= x_(N) of
    max(i/N - x_(i), x_(i) - (i-1)/N).
    """
    if ps.dim != 1:
        raise ConfigError(f"exact star discrepancy supported only for d=1, got d={ps.dim}")
    x = np.sort(ps.points[:, 0])
    n = len(x)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.maximum(i / n - x, x - (i - 1) / n).max())
