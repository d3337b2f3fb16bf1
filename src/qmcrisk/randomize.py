"""Randomization of digital point sets.

Two schemes, both reproducible from a 64-bit seed (0 <= seed < 2^64):

* nested uniform scrambling (Owen): an independent random permutation of
  each binary digit, where the permutation applied at depth k depends on
  the preceding k-1 digits of that coordinate.  Realized as bit-flips
  drawn from a keyed hash of (seed, dimension, depth, digit prefix), which
  is equivalent in distribution to an explicit permutation tree but needs
  no tree storage.  Digits 1..20 are scrambled this way; digits 21..52
  take one hash of the 20-digit prefix, which keeps the scramble nested
  uniform while the 20-digit prefixes are distinct (the first 2^20
  Sobol' points) and gives each prefix cell its own digital shift beyond
  that.  Scrambled outputs of a digital net form a digital net with the
  same parameters, and each point is uniform on [0,1)^d.

* digital shift: XOR of every coordinate with one random binary word per
  dimension.  Cheaper, structure-preserving in a weaker sense; used as an
  experimental baseline.

Both operate on the exact 52-bit dyadic integers of the coordinates, so
identical inputs give byte-identical outputs.  Each scheme is a step
factory, ``owen_step(dim, seed, n)`` or ``shift_step(dim, seed, n)`` for a
draw of n points, whose step changes one (d, rows) uint64 tile in place
and reads only what the factory built; ``lowdisc.walk`` runs it on Sobol'
tiles (the samplers) or on the integers of a caller's point set
(``owen_scramble``, ``digital_shift``), possibly on several threads at
once.  Tiling changes no output bit, since each coordinate's randomization
depends on that coordinate alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bits import MIX1, MIX2, check_seed, hash64
from .lowdisc import DEFAULT_BIT_DEPTH, PointSet, walk

_OWEN_TAG = 0x6F77656E  # "owen"
_SHIFT_TAG = 0x73666874  # "sfht"

# Digits deeper than this take one hash of the 20-digit prefix, a digital
# shift per prefix cell.  The scramble stays nested-uniform while the
# prefixes of a coordinate are distinct (Owen 2003), which holds for the
# first 2^20 Sobol' points and so covers FULL_GRID.  sample_points
# ("rqmc-owen", 2^19, 15) took 0.42 s with 20 keyed digits and a tail
# against 0.87 s with all 52 keyed digits (best of 5, 2-core host).
_OWEN_DEPTH = 20
# Digits 1..12 flip by one lookup in a per-step (dim, 2^12) table, 32 KiB
# per dimension.  With tables of 2^8, 2^10, 2^12 and 2^14 entries the same
# call took 0.29, 0.25, 0.19 and 0.19 s; the 2^14 table took 14 ms to
# build at d = 15 against 2 ms for 2^12.
_OWEN_TABLE_DIGITS = 12


def _mix_in_place(z: np.ndarray, t: np.ndarray) -> None:
    """The splitmix64 finalizer of ``bits.mix64`` on z, in place, without
    its last ``z ^ (z >> 31)`` step; t is scratch."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(MIX2)


def _flip_digits(x: np.ndarray, z: np.ndarray, t: np.ndarray, keys: np.ndarray, first: int, last: int) -> None:
    """Flip digits last..first of x in place, deepest first, digit k by bit
    63 of the mix64 of digits 1..k-1 keyed with ``keys[k - 1]``.

    Going deepest first lets each flip land in place: the prefixes of the
    digits still to come never read the digits already flipped.  The final
    ``z ^ (z >> 31)`` step of mix64 never changes bit 63 and is skipped.
    """
    nb = DEFAULT_BIT_DEPTH
    for k in range(last, first - 1, -1):
        # digits 1..k-1; empty (zero) for k = 1 since x < 2^nb
        np.right_shift(x, np.uint64(nb - k + 1), out=z)
        z ^= keys[k - 1]
        _mix_in_place(z, t)
        z >>= np.uint64(63)
        z <<= np.uint64(nb - k)
        x ^= z


def owen_step(dim: int, seed: int, n: int) -> Callable[..., None]:
    """The nested uniform scramble of a (dim, rows) integer tile, in place,
    for a draw of n points.

    The flip applied to digit k <= 20 of a coordinate is a pseudorandom bit
    keyed by (seed, dimension, k, digits 1..k-1 of that coordinate), so
    points sharing a digit prefix share its permutation, which is exactly
    the nested structure that keeps net parameters intact.  Digits 21..52
    are XORed with the top 32 bits of one mix64 of the 20-digit prefix and
    a per-dimension tail key: nested-uniform while the 20-digit prefixes
    are distinct, as for the first 2^20 Sobol' points, and beyond that a
    digital shift of its own in each prefix cell.

    A tile takes three passes.  The tail reads the prefix before any of its
    digits flips; digits 13..20 take their keyed flips, deepest first; and
    digits 1..12 take one lookup in a table holding, for each dimension and
    each 12-digit prefix, the flips the keyed loop gives.  The factory
    builds that table only for a draw of 2^12 points or more, where it
    costs less than running digits 1..12 through the loop; a shorter draw
    runs them through the loop.  Table and loop give the same bits.

    The step is pure: it reads only state fixed by the factory, so several
    threads may run it at once, as the walk's pool does.
    """
    seed = check_seed(seed)
    nb, depth, top = DEFAULT_BIT_DEPTH, _OWEN_DEPTH, _OWEN_TABLE_DIGITS
    dim_keys = [hash64(seed, _OWEN_TAG, j + 1) for j in range(dim)]
    # keys[k - 1] is the (d, 1) column of per-dimension keys for digit k;
    # digit index 0 is free for the tail
    keys = np.array([[[hash64(key, k)] for key in dim_keys] for k in range(1, depth + 1)], dtype=np.uint64)
    tail_keys = np.array([[hash64(key, 0)] for key in dim_keys], dtype=np.uint64)
    offsets = np.arange(dim, dtype=np.int64)[:, np.newaxis] << top
    table = None
    if n >= 1 << top:
        # table[j << top | i]: flips of digits 1..top for top digits i in
        # dimension j, built in one pass.  On the study's two threads one
        # pass ran about 10% faster than passes of 2^10 entries, whose
        # smaller scratch (240 KiB against 960 KiB at d = 15) saved 0.3 MiB
        # of peak RSS
        words = np.arange(1 << top, dtype=np.uint64) << np.uint64(nb - top)
        table = np.tile(words, (dim, 1))
        z, t = np.empty((2, dim, 1 << top), dtype=np.uint64)
        _flip_digits(table, z, t, keys, 1, top)
        table ^= words
        table = table.reshape(-1)

    def scramble(x: np.ndarray, z: np.ndarray, t: np.ndarray) -> None:
        # digits 21..52: the top 32 bits of the full mix64 of the keyed
        # 20-digit prefix, read before any digit above it flips
        np.right_shift(x, np.uint64(nb - depth), out=z)
        z ^= tail_keys
        _mix_in_place(z, t)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        z >>= np.uint64(64 - (nb - depth))
        x ^= z
        if table is None:
            _flip_digits(x, z, t, keys, 1, depth)
            return
        _flip_digits(x, z, t, keys, top + 1, depth)
        # digits 1..12: the table entry at j << 12 | the top 12 digits.  The
        # index is always in range; "clip" spares the tile-sized copy of
        # ``out`` that take's default "raise" mode makes, one per worker
        np.right_shift(x, np.uint64(nb - top), out=z)
        index = z.view(np.int64)
        index += offsets
        np.take(table, index, out=t, mode="clip")
        x ^= t

    return scramble


def shift_step(dim: int, seed: int, n: int) -> Callable[..., None]:
    """The XOR of a (dim, rows) integer tile with one random 52-bit word
    per dimension, in place; n, the draw's size, is taken to match
    ``owen_step`` and changes nothing."""
    seed = check_seed(seed)
    mask = (1 << DEFAULT_BIT_DEPTH) - 1
    # (d, 1): one word per dimension, broadcast along the tile's rows
    words = np.array([[hash64(seed, _SHIFT_TAG, j + 1) & mask] for j in range(dim)], dtype=np.uint64)
    return lambda x, *scratch: np.bitwise_xor(x, words, out=x)


def owen_scramble(ps: PointSet, seed: int) -> PointSet:
    """Nested uniform scramble of a base-2 point set (see ``owen_step``)."""
    return PointSet(points=walk(ps.n, ps.dim, owen_step(ps.dim, seed, ps.n), ps.points))


def digital_shift(ps: PointSet, seed: int) -> PointSet:
    """XOR every coordinate's 52-bit expansion with one random word per
    dimension.  Applying the same seed twice restores the input."""
    return PointSet(points=walk(ps.n, ps.dim, shift_step(ps.dim, seed, ps.n), ps.points))
