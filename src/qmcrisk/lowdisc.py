"""Base-2 digital sequences and point-set quality checks.

Generates van der Corput and Sobol' points (Joe-Kuo direction numbers),
verifies the digital-net property by exhaustive elementary-interval
counting, and computes the exact one-dimensional star discrepancy.

Coordinates are exact dyadic rationals with at most 52 binary digits, so
every value is an exact double.  Generation is deterministic and has the
prefix property: the first n points of a longer run are byte-identical to
a run of n points.

``tiled`` is the package's one tiled loop: a source makes each tile's
points, and an optional kernel, a model's ``tile_losses``, maps them to
losses, overwriting the block the source handed it.  ``walk``, the
source of the Sobol' points or of a caller's point set's integers, is the
one place where the 52-bit integers become floats, one tile at a time, so
no second N x d array exists; with a kernel, none.
``run_tiles`` is the package's one thread scheduler.  It runs the tiles of
``tiled`` and the study's replications, one per tile.  Called from the
main thread on enough tiles, the loop spreads over one thread per usable
CPU; from any other thread, such as a study worker's, it runs inline.
Each tile depends on its own indices or input rows alone, so the output is
the same for any CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterator, Optional

import numpy as np

from .bits import check_int
from .errors import ConfigError, PrecisionError, WorkLimitError

DEFAULT_BIT_DEPTH = 52

# Hard cap on is_net work: compositions(m - t, d) * b**m cell increments.
WORK_LIMIT = 10**9

_BUNDLED_TABLE = "joe-kuo-64.txt"

# Coordinates per tile, at most, in rows by ``_tile_rows``, of ``tiled``,
# whatever its source: the walk, ``evaluate``'s blocks or the MC and truth
# draws, whose tiles are also the unit the truth pass reduces.  So every
# numpy call of a step covers up to 2^17 coordinates (1 MiB of uint64,
# 512 KiB per uint32 plane); a (15, 8192) evaluated tile stays in cache,
# and on a 2-core host one 2^19 x 15 evaluate took 50 ms tiled and 90 ms
# untiled, on one thread.  That size is a constant, not a setting, chosen
# for the threads of ``run_tiles``, a study's or the tiled loop's, which
# run tiles concurrently: the threads pass the GIL at every numpy call, so
# smaller calls stop them overlapping, and larger tiles cost more scratch.
# On a 2-core host with numpy 2.4.6, eight 2^16 x 15 Owen replications
# (``sample_losses``) ran on two threads 1.03-1.04x as fast as on one at
# 2^15 coordinates per tile, 1.31-1.57x at 2^16, 1.37-1.65x at 2^17 and
# 1.59-1.66x at 2^18 (146-151 ms at 2^17 against 175-207 ms at 2^16); one
# 2^19 x 15 Owen draw on two workers against one ran 0.98-1.29x,
# 1.34-1.65x, 1.53-1.79x and 1.73-1.81x (best of 3, two rounds).  2^18
# would double the scratch again for little more.  So every worker of
# the loop keeps a full tile rather than a share of one.  Tiling
# changes no output bit, since each coordinate's value depends on that
# coordinate's index or input alone.
_TILE_COORDS = 1 << 17

# Tiles per worker of ``tiled``'s pool, at least.  A worker on the walk
# holds three tiles of scratch, so the pool's scratch stays within 3/16 of
# the points, and a 2^16 x 15 draw (8 tiles, the study's largest size)
# stays on one thread; at d = 15 a draw or an evaluation pools from 2^18
# points on.  A worker on a caller's block holds one tile, on the PCG64
# stream two, against losses a dim-th of the points' size.  With no
# floor, two workers took the tracemalloc peak of an Owen scramble, a
# digital shift or an Owen draw of 2^16 x 15 to 1.77-1.80x the output,
# against 1.38-1.42x on one thread.
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
    dim = check_int(dim, "dim", 1, len(lines) + 1, why="the direction-number table's range")
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


def frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a fresh array a PointSet may keep without a copy."""
    a.setflags(write=False)
    return a


def grid_integers(coords: np.ndarray, out: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Coordinates times 2^52, cast into the uint64 ``out``; ``scaled`` is
    float64 scratch of out's shape.

    Raises PrecisionError if any coordinate is not exactly representable
    with 52 binary digits, i.e. if any scaled value is not an integer.
    """
    np.multiply(coords, 2.0 ** DEFAULT_BIT_DEPTH, out=scaled)
    np.copyto(out, scaled, casting="unsafe")
    # the fraction the cast dropped: out is below 2^52, so exact as a double
    np.subtract(scaled, out, out=scaled)
    if np.count_nonzero(scaled):
        raise PrecisionError(
            f"coordinates are not dyadic with {DEFAULT_BIT_DEPTH} bits; "
            "only base-2 generated point sets can be used here"
        )
    return out


@dataclass(frozen=True)
class PointSet:
    """An ordered batch of N points in [0,1)^d, read-only.  It copies any
    array but a ``frozen`` one (read-only, C-contiguous, owning its data),
    so a caller's array stays writable and its writes do not reach the set."""

    points: np.ndarray  # (N, d) float64

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ConfigError("points must be a nonempty (N, d) array")
        # written so that NaN coordinates fail the check too
        if np.any(pts < 0.0) or not np.all(pts < 1.0):
            raise ConfigError("all coordinates must lie in [0, 1)")
        if pts.flags.writeable or not (pts.flags.owndata and pts.flags.c_contiguous):
            pts = frozen(np.array(pts, order="C"))
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
        return grid_integers(self.points, np.empty(self.points.shape, dtype=np.uint64), np.empty(self.points.shape))


def radical_inverse(i: int, b: int = 2) -> float:
    """Base-b digit reversal of a nonnegative integer, in [0,1)."""
    i, b = check_int(i, "i", 0), check_int(b, "b", 2)
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


def check_count(n: int, name: str = "count") -> int:
    """n as an int; ConfigError unless it is an integer in 1..2^52, the generator's range."""
    return check_int(n, name, 1, 1 << DEFAULT_BIT_DEPTH, why="the generator's range")


def _tile_rows(dim: int) -> int:
    """Rows of a full ``walk`` tile in dim dimensions: the largest power of
    two with at most ``_TILE_COORDS`` coordinates, at least one."""
    return 1 << max(0, (_TILE_COORDS // dim).bit_length() - 1)


@lru_cache(maxsize=8)
def _lead(dim: int, cols: int) -> np.ndarray:
    """The integers of the first ``cols`` Sobol' points, a power of two, as
    a read-only (dim, cols) block shared by every walk that reads it.  It is
    built by doubling: points h..2h-1 are points 0..h-1 XOR V_k, h = 2^k."""
    v = _directions(dim)
    lead = np.zeros((dim, cols), dtype=np.uint64)
    for k in range(cols.bit_length() - 1):
        h = 1 << k
        np.bitwise_xor(lead[:, :h], v[:, k : k + 1], out=lead[:, h : 2 * h])
    return frozen(lead)


def run_tiles(n: int, rows: int, worker: Callable[[], Callable[[int, int], None]], workers: Optional[int] = None) -> None:
    """``tile(start, m)`` for each tile of n rows: rows start..start + m - 1,
    m = ``rows`` but in a ragged last tile.  ``worker()`` makes one
    worker's ``tile``, with its own scratch and state, on the calling
    thread; each ``tile`` runs on one thread, in row order.

    ``workers`` defaults to one per usable CPU with at least
    ``_TILES_PER_WORKER`` tiles each when called from the main thread, and
    to one from any other thread, such as a study worker's.  One worker
    runs inline; more run on a pool made for the call.  Worker w takes
    tiles w, w + workers, ...; a worker that raises, or an interrupted
    caller, stops them all before their next tile, and every tile that
    started has finished before the call returns or raises.  So a loop
    whose tiles each depend on their own rows alone gives the same output
    for any worker count.
    """
    starts = range(0, n, rows)
    if workers is None:
        workers = 1
        if threading.current_thread() is threading.main_thread():
            workers = max(1, min(_usable_cpus(), len(starts) // _TILES_PER_WORKER))
    # every worker's scratch, allocated here: allocated on the workers
    # themselves (in per-thread malloc arenas), it raised the peak RSS of
    # a 2^19 x 15 Owen draw on two workers by 3.8-4.4 MiB over one thread,
    # against 1.1-1.4 MiB
    tiles = [worker() for _ in range(workers)]
    stop = threading.Event()
    # every thread that ran a worker: an interrupt inside the pool's submit
    # can land after a thread has started and before the pool has
    # registered it, and the pool's shutdown then does not join that thread
    threads = []

    def run(w: int) -> None:
        threads.append(threading.current_thread())
        try:
            for start in starts[w::workers]:
                if stop.is_set():
                    return
                tiles[w](start, min(rows, n - start))
        except BaseException:
            stop.set()
            raise

    if workers == 1:
        run(0)
        return
    try:
        with ThreadPoolExecutor(workers) as pool:
            try:
                list(pool.map(run, range(workers)))
            finally:
                stop.set()
    finally:
        for thread in threads:
            thread.join()


def tiled(n: int, dim: int, source: Callable, kernel: Optional[Callable] = None, sink: Optional[Callable] = None) -> Optional[np.ndarray]:
    """The package's one tiled loop: n points in dim dimensions, made and
    used one tile of at most r = max(1, min(``_tile_rows(dim)``, n)) rows
    at a time by ``run_tiles``.

    ``source(r)``, called once per worker on the calling thread, gives
    that worker's ``read(start, m, y, rows_out)`` of points start..start +
    m - 1, asked for in row order, with y the worker's C-contiguous (dim,
    m) float64 block, which read may use.  Without ``kernel``, read writes
    the points to ``rows_out``, their rows of the (n, dim) output that
    ``tiled`` returns.  With ``kernel`` (a model's ``tile_losses``), read
    returns the points as the columns of a (dim, m) block u that the
    kernel may overwrite (y itself, or the source's own scratch, never a
    caller's array), ``kernel(u, losses, y)`` writes their losses, and
    ``tiled`` returns the n losses;
    or, given ``sink``, which several threads may call at once, each
    tile's go to ``sink(start, losses)``, valid until it returns, and
    ``tiled`` returns None.  Each point is made and evaluated on its own,
    so the output depends on neither the tiling nor the worker count.
    """
    rows = max(1, min(_tile_rows(dim), n))
    out = np.empty((n, dim) if kernel is None else n) if sink is None else None

    def worker() -> Callable[[int, int], None]:
        read = source(rows)
        y = np.empty(dim * rows)  # carved for each m, so C-contiguous
        held = np.empty(rows) if sink is not None else None

        def tile(start: int, m: int) -> None:
            u = y[: dim * m].reshape(dim, m)
            if kernel is None:
                read(start, m, u, out[start : start + m])
                return
            losses = out[start : start + m] if sink is None else held[:m]
            kernel(read(start, m, u, None), losses, u)
            if sink is not None:
                sink(start, losses)

        return tile

    run_tiles(n, rows, worker)
    return out


def walk(dim: int, step: Optional[Callable] = None, points: Optional[np.ndarray] = None) -> Callable:
    """The ``tiled`` source of the first Sobol' points in dim dimensions,
    or of the rows of ``points`` (PrecisionError if one is not dyadic), as
    (dim, m) uint64 tiles x turned into floats; asked for a block, it
    writes them into the loop's block y, where a kernel then works.

    ``step(x, z, t)``, if given, changes x in place, with scratch blocks z,
    y's memory, and t; all three are C-contiguous of x's shape.  It must
    change no state of its own, since several threads may run it at once.
    The Sobol' segment at s, a multiple of c = max(1, ``_tile_rows(dim)``
    / 2), is the first c points, the shared ``_lead``, XORed with the XOR
    of V_k over the set bits k of s: s and i < c share no bits.  A tile
    takes at most two segments; only a loop of one tile has r < 2c.
    """
    nb = DEFAULT_BIT_DEPTH
    if points is None:
        v = _directions(dim)  # checks dim
        lead = _lead(dim, max(1, _tile_rows(dim) // 2))

    def source(rows: int) -> Callable:
        # one array per tile, not one block: once glibc has freed a block
        # it serves that size from the threads' arenas, and with 2.88 MiB
        # blocks an arena of the two-thread 2^16 x 15 study now and then
        # grew to 6.1 MiB, peak RSS +2.3-2.9 MiB in 11 of 29 processes of
        # 40 studies on a 2-core host, against 1 of 21 with 0.94 MiB tiles
        scratch = [np.empty(dim * rows, dtype=np.uint64) for _ in range(2)]

        def read(start: int, m: int, y: np.ndarray, rows_out: Optional[np.ndarray]) -> Optional[np.ndarray]:
            x, t = (a[: dim * m].reshape(dim, m) for a in scratch)
            if points is None:
                for s in range(0, m, lead.shape[1]):
                    c = min(lead.shape[1], m - s)
                    word = np.bitwise_xor.reduce(v[:, [k for k in range(nb) if (start + s) >> k & 1]], axis=1, keepdims=True)
                    np.bitwise_xor(lead[:, :c], word, out=x[:, s : s + c])
            else:
                grid_integers(points[start : start + m].T, x, y)
            if step is not None:
                step(x, y.view(np.uint64), t)
            if rows_out is None:
                return np.multiply(x, 2.0 ** -nb, out=y)
            # x.T into the rows: as x into rows_out.T, numpy follows x's
            # order and writes the output dim * 8 bytes apart, 0.45 ms per
            # (15, 8192) tile against 0.24-0.30 ms (best of 200, 2-core host)
            np.multiply(x.T, 2.0 ** -nb, out=rows_out)

        return read

    return source


def sobol_points(n: int, dim: int) -> PointSet:
    """The first n points of the base-2 Sobol' sequence in dim dimensions.

    Point i is the XOR of the direction integers V_k over the set bits k of
    i.  Dimension 1 is the van der Corput sequence (radical inverse base
    2); point 0 is the origin.  Coordinates are exact multiples of 2^-52.
    """
    dim = _directions(dim).shape[0]  # checks dim
    return PointSet(points=frozen(tiled(check_count(n), dim, walk(dim))))


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
        m = check_int(self.m, "m", 0)
        for name, lo, hi in (("t", 0, m), ("d", 1, None), ("b", 2, None)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, lo, hi))
        object.__setattr__(self, "m", m)


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


def is_net(ps: PointSet, params: NetParams) -> NetCheckResult:
    """Exhaustively verify the (t,m,d)-net property in base b.

    Enumerates every shape vector (k_1..k_d) with sum m-t and counts points
    in every cell of the induced partition; passes iff every cell holds
    exactly b^t points.  On failure the result carries one offending
    interval and its count.

    A coordinate x falls in cell floor(x * b^k) of a part with k digits.
    In base 2, x * 2^k and its floor are exact for every double in [0, 1).
    In any base the cell stays below b^k: x is at most 1 - 2^-53, and for
    an integer N below 2^53 that is not a power of two (b^k <= b^m is at
    most WORK_LIMIT), N - N * 2^-53 lies more than half an ulp below N, so
    the product rounds below N.
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

    n_cells = b ** (m - t)
    expected = b**t
    cols = np.ascontiguousarray(ps.points.T)  # unit-stride reads per part
    part = np.empty(ps.n)
    for shape in _compositions(m - t, d):
        cell = np.zeros(ps.n, dtype=np.int64)
        for j, k in enumerate(shape):
            if k == 0:
                continue
            np.multiply(cols[j], float(b**k), out=part)
            np.floor(part, out=part)
            cell *= b**k
            cell += part.astype(np.int64)
        counts = np.bincount(cell, minlength=n_cells)
        bad = np.nonzero(counts != expected)[0]
        if bad.size:
            flat = int(bad[0])
            cells = tuple(int(tj) for tj in np.unravel_index(flat, [b**k for k in shape]))
            witness = IntervalWitness(
                shape=shape,
                cell=cells,
                lower=tuple(tj / b**k for tj, k in zip(cells, shape)),
                upper=tuple((tj + 1) / b**k for tj, k in zip(cells, shape)),
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
    m = check_int(m, "m", 0)
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
