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
identical inputs give byte-identical outputs.  Each scheme is a step
factory, ``owen_step(dim, seed)`` or ``shift_step(dim, seed)``, whose step
changes one (d, rows) uint64 tile in place; ``lowdisc.walk`` runs it on
Sobol' tiles (the samplers) or on the integers of a caller's point set
(``owen_scramble``, ``digital_shift``).  Tiling changes no output bit,
since each coordinate's randomization depends on that coordinate alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bits import MIX1, MIX2, check_seed, hash64
from .lowdisc import DEFAULT_BIT_DEPTH, PointSet, walk

_OWEN_TAG = 0x6F77656E  # "owen"
_SHIFT_TAG = 0x73666874  # "sfht"


def owen_step(dim: int, seed: int) -> Callable[..., None]:
    """The nested uniform scramble of a (dim, rows) integer tile, in place.

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
    dim_keys = [hash64(seed, _OWEN_TAG, j + 1) for j in range(dim)]
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

    return scramble


def shift_step(dim: int, seed: int) -> Callable[..., None]:
    """The XOR of a (dim, rows) integer tile with one random 52-bit word
    per dimension, in place."""
    seed = check_seed(seed)
    mask = (1 << DEFAULT_BIT_DEPTH) - 1
    # (d, 1): one word per dimension, broadcast along the tile's rows
    words = np.array([[hash64(seed, _SHIFT_TAG, j + 1) & mask] for j in range(dim)], dtype=np.uint64)
    return lambda x, *scratch: np.bitwise_xor(x, words, out=x)


def owen_scramble(ps: PointSet, seed: int) -> PointSet:
    """Nested uniform scramble of a base-2 point set (see ``owen_step``)."""
    return PointSet(points=walk(ps.n, ps.dim, owen_step(ps.dim, seed), ps.points))


def digital_shift(ps: PointSet, seed: int) -> PointSet:
    """XOR every coordinate's 52-bit expansion with one random word per
    dimension.  Applying the same seed twice restores the input."""
    return PointSet(points=walk(ps.n, ps.dim, shift_step(ps.dim, seed), ps.points))
