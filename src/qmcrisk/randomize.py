"""Randomization of digital point sets.

Two schemes, both reproducible from a 64-bit seed (0 <= seed < 2^64):

* nested uniform scrambling (Owen): an independent random permutation of
  each binary digit, where the permutation applied at depth k depends on
  the preceding k-1 digits of that coordinate.  Realized as bit-flips
  drawn from a keyed hash of (seed, dimension, depth, digit prefix), which
  is equivalent in distribution to an explicit permutation tree but needs
  no tree storage.  Scrambled outputs of a digital net form a digital net
  with the same parameters, and each point is uniform on [0,1)^d.

* digital shift: XOR of every coordinate with one random binary word per
  dimension.  Cheaper, structure-preserving in a weaker sense; used as an
  experimental baseline.

Both operate on the exact 52-bit dyadic integers of the coordinates, so
identical inputs give byte-identical outputs.

One tile layout serves both.  The points are processed in row tiles of
``max(1, 2^16 // d)`` rows: each tile is copied dimension-major into a
contiguous (d, rows) float block, converted to a (d, rows) uint64 block
(PrecisionError if a coordinate is not dyadic), randomized in place, and
written transposed into the float output.  Besides the output, a call
holds only these tile blocks and two scratch blocks, never a second N x d
array.  Every numpy call thus covers about 2^16 coordinates (512 KiB).
That size is a constant, not a setting, chosen for the study's thread
pool: smaller calls hand the GIL back so often that the threads stop
overlapping, and larger tiles leave the cache.  On a 2-core host with
numpy 2.4.6, two threads ran eight 2^16 x 15 Owen scrambles in 0.94 s at
2^16 coordinates per tile, against 1.12 s at 2^17, 1.32 s at 2^15 and
2.17 s at 2^14 (slower than one thread); one 2^19 x 15 scramble took
1.5-1.8 s at every size from 2^14 to 2^17.  Tiling changes no output bit,
since each coordinate's randomization depends on that coordinate alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bits import MIX1, MIX2, check_seed, hash64
from .lowdisc import DEFAULT_BIT_DEPTH, PointSet, grid_integers

_OWEN_TAG = 0x6F77656E  # "owen"
_SHIFT_TAG = 0x73666874  # "sfht"

# coordinates per tile; the module docstring gives the reason
_TILE_COORDS = 1 << 16


def _walk(ps: PointSet, step: Callable[..., None]) -> np.ndarray:
    """The points with ``step`` applied to their integers, one tile at a time.

    ``step(x, z, t)`` randomizes the (d, m) uint64 tile ``x`` in place;
    ``z`` and ``t`` are scratch blocks of the same shape.
    """
    nb = DEFAULT_BIT_DEPTH
    n, d = ps.points.shape
    rows = min(n, max(1, _TILE_COORDS // d))
    f = np.empty((d, rows))
    x, z, t = np.empty((3, d, rows), dtype=np.uint64)
    out = np.empty((n, d))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        np.multiply(ps.points[start : start + m].T, 2.0 ** nb, out=f[:, :m])
        grid_integers(f[:, :m], x[:, :m])
        step(x[:, :m], z[:, :m], t[:, :m])
        np.multiply(x[:, :m].T, 2.0 ** -nb, out=out[start : start + m])
    return out


def owen_scramble(ps: PointSet, seed: int) -> PointSet:
    """Nested uniform scramble of a base-2 point set.

    The flip applied to digit k of a coordinate is a pseudorandom bit keyed
    by (seed, dimension, k, digits 1..k-1 of that coordinate), so points
    sharing a digit prefix share its permutation, which is exactly the
    nested structure that keeps net parameters intact.  All 52 digits are
    scrambled.

    Digits run from the last to the first, so each flip can land in the
    tile in place: the prefixes of the digits still to come never read the
    digits already flipped.  The flip is bit 63 of the keyed mix64, whose
    final ``z ^ (z >> 31)`` step never changes that bit and is skipped.
    """
    seed = check_seed(seed)
    nb = DEFAULT_BIT_DEPTH
    # keys[k - 1] is the (d, 1) column of per-dimension keys for digit k
    dim_keys = [hash64(seed, _OWEN_TAG, j + 1) for j in range(ps.dim)]
    keys = np.array(
        [[[hash64(key, k)] for key in dim_keys] for k in range(1, nb + 1)], dtype=np.uint64
    )

    def scramble(x: np.ndarray, z: np.ndarray, t: np.ndarray) -> None:
        for k in range(nb, 0, -1):
            # digits 1..k-1; empty (zero) for k = 1 since x < 2^nb
            np.right_shift(x, np.uint64(nb - k + 1), out=z)
            z ^= keys[k - 1]
            np.right_shift(z, np.uint64(30), out=t)
            z ^= t
            z *= np.uint64(MIX1)
            np.right_shift(z, np.uint64(27), out=t)
            z ^= t
            z *= np.uint64(MIX2)
            z >>= np.uint64(63)
            z <<= np.uint64(nb - k)
            x ^= z

    return PointSet(points=_walk(ps, scramble))


def digital_shift(ps: PointSet, seed: int) -> PointSet:
    """XOR every coordinate's 52-bit expansion with one random word per
    dimension.  Applying the same seed twice restores the input."""
    seed = check_seed(seed)
    mask = (1 << DEFAULT_BIT_DEPTH) - 1
    # (d, 1): one word per dimension, broadcast along the tile's rows
    words = np.array([[hash64(seed, _SHIFT_TAG, j + 1) & mask] for j in range(ps.dim)], dtype=np.uint64)
    return PointSet(points=_walk(ps, lambda x, *scratch: np.bitwise_xor(x, words, out=x)))
