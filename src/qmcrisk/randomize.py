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
  that.  Every hash reads the 20-digit prefix, which fits a 32-bit word,
  so all of them are lowbias32 (``bits.mix32``) with 32-bit keys, as in
  Burley's hash-based Owen scrambling (JCGT 9(4), 2020).  The flips of
  digits 1..top+1 are one lookup in a per-step table indexed by a
  coordinate's first top digits, which are all that digit top+1's flip
  reads; digits top+2..20 take one hash each.  Scrambled outputs of a
  digital net form a digital net with the same parameters, and each point
  is uniform on [0,1)^d.

* digital shift: XOR of every coordinate with one random binary word per
  dimension.  Cheaper, structure-preserving in a weaker sense; used as an
  experimental baseline.

Both operate on the exact 52-bit dyadic integers of the coordinates, so
identical inputs give byte-identical outputs.  Each scheme is a step
factory, ``owen_step(dim, seed, n)`` or ``shift_step(dim, seed, n)`` for a
draw of n points, whose step changes one (d, rows) uint64 tile in place
and reads only what the factory built; ``lowdisc.walk``, a source of
``lowdisc.tiled``, runs it on Sobol' tiles (the samplers) or on the
integers of a caller's point set (``owen_scramble``, ``digital_shift``),
possibly on several threads at once.  Tiling changes no output bit,
since each coordinate's randomization depends on that coordinate alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bits import check_int, check_seed, hash64_array, mix32
from .lowdisc import DEFAULT_BIT_DEPTH, PointSet, check_count, frozen, tiled, walk

_OWEN_TAG = 0x6F77656E  # "owen"
_SHIFT_TAG = 0x73666874  # "sfht"

# Digits deeper than this take one hash of the 20-digit prefix, a digital
# shift per prefix cell.  The scramble stays nested-uniform while the
# prefixes of a coordinate are distinct (Owen 2003), which holds for the
# first 2^20 Sobol' points and so for any grid up to N = 2^20.  Keying all
# 52 digits would take 32 more keyed hashes per coordinate, on prefixes too
# long for the 32-bit words every hash reads; sample_points("rqmc-owen",
# 2^19, 15) takes 109-114 ms (best of 7, two threads, 2-core host).
_OWEN_DEPTH = 20
# Digits 1..top+1 flip by one lookup in a per-step (dim, 2^top) uint32
# table indexed by the top digits, top = min(14, ceil(log2 n) - 4), at
# least one, for a draw of n points: under n / 8 entries per dimension, at
# most 1/16 of the float64 output from n = 16 on.  On a (15, 8192) Sobol'
# tile the step took 13.5-19.6 ns per coordinate at top 14, 13.0-19.3 at
# 15 and 15.0-20.7 at 12 (thread CPU time, best of 400, five processes,
# 2-core host); 15 doubles 14's table and its 2.0-2.5 ms build (d = 15)
# for no step time that spread can tell apart.
_OWEN_TABLE_DIGITS = 14


def _owen_keys(dim: int, seed: int) -> np.ndarray:
    """The (21, dim, 1) uint32 keys of a scramble: keys[k] is the column of
    per-dimension keys of digit k, the top word of hash64(dim key, k), and
    keys[0] the tail's, each with mix32's first xorshift folded in."""
    dim_keys = hash64_array(seed, _OWEN_TAG, np.arange(1, dim + 1, dtype=np.uint64))
    digits = np.arange(_OWEN_DEPTH + 1, dtype=np.uint64)[:, np.newaxis]
    keys = (hash64_array(dim_keys, digits) >> np.uint64(32)).astype(np.uint32)[:, :, np.newaxis]
    keys ^= keys >> np.uint32(16)
    return keys


def _flip_table(keys: np.ndarray, top: int) -> np.ndarray:
    """The (dim, 2^top) flip words of digits 1..top+1, top <= 16, of every
    top-digit prefix, by doubling in place.  Level k <= top hashes digit k
    once per (k-1)-digit prefix a, its own fold as a < 2^15; a's entry,
    first in its block, takes the flip and is copied to the first entry of
    the block's second half.  The last level does not double: digit top+1
    reads the whole index a < 2^16, so it is hashed once per entry and
    XORed into that entry, in two halves of 2^(top-1) prefixes that reuse
    the levels' scratch."""
    dim = keys.shape[1]
    table = np.zeros((dim, 1 << top), dtype=np.uint32)
    half = 1 << (top - 1)
    # flat, so that every level's (dim, m) hash planes are contiguous
    z, t = np.empty((2, dim * half), dtype=np.uint32)
    prefixes = np.arange(half, dtype=np.uint32)
    for k in range(1, top + 1):
        m, step = 1 << (k - 1), 1 << (top - k)
        h = np.bitwise_xor(prefixes[:m], keys[k], out=z[: dim * m].reshape(dim, m))
        mix32(h, t[: dim * m].reshape(dim, m))
        h >>= np.uint32(31)
        h <<= np.uint32(_OWEN_DEPTH - k)
        h ^= table[:, :: 2 * step]
        table[:, :: 2 * step] = h
        table[:, step :: 2 * step] = h
    # digit top+1: prefixes half + i = half ^ i take the key XORed with half
    h, s = z.reshape(dim, half), t.reshape(dim, half)
    for lo in (0, half):
        np.bitwise_xor(prefixes, keys[top + 1] ^ np.uint32(lo), out=h)
        mix32(h, s)
        h >>= np.uint32(31)
        h <<= np.uint32(_OWEN_DEPTH - top - 1)
        table[:, lo : lo + half] ^= h
    return table


def owen_step(dim: int, seed: int, n: int) -> Callable[..., None]:
    """The nested uniform scramble of a (dim, rows) integer tile, in place,
    for a draw of n points.

    The flip applied to digit k <= 20 of a coordinate is a pseudorandom bit
    keyed by (seed, dimension, k, digits 1..k-1 of that coordinate), so
    points sharing a digit prefix share its permutation, which is exactly
    the nested structure that keeps net parameters intact.  Digits 21..52
    are XORed with one lowbias32 of the 20-digit prefix and a
    per-dimension tail key: nested-uniform while the 20-digit prefixes are
    distinct, as for the first 2^20 Sobol' points, and beyond that a
    digital shift of its own in each prefix cell.

    Every hash is a lowbias32 (``bits.mix32``) of digits of the 20-digit
    prefix word p = x >> 32 and a 32-bit key, its first xorshift folded:
    (p >> s) ^ (p >> s >> 16) is (p ^ p >> 16) >> s, so a tile sets q = p ^
    p >> 16 once, and each key carries its own.  A tile takes three passes.
    The tail is XORed into the low word, digits 21..52; digits 1..top+1
    take one lookup, at q >> (20 - top), p's top digits for top <= 16, in
    a table holding, for each dimension and each top-digit prefix, the
    flips the keyed loop gives (digit top+1's flip reads those top digits
    alone); and digits top+2..20 take that loop, whose flips join the
    table's in one 32-bit flip word XORed into p's half of x.  The factory
    builds the table by doubling and sizes it to the draw (see
    ``_OWEN_TABLE_DIGITS``), indexed by 12 digits for 2^16 points; a table
    entry is a fixed function of its prefix, so every size gives the same
    bits, and a draw of n points is the first n points of any longer draw.

    The step is pure: it reads only state fixed by the factory, so several
    threads may run it at once, as the walk's pool does.  Its scratch
    tiles z and t must be C-contiguous, as the walk's are.
    """
    dim, seed, n = check_int(dim, "dim", 1), check_seed(seed), check_count(n)
    depth = _OWEN_DEPTH
    keys = _owen_keys(dim, seed)
    top = min(_OWEN_TABLE_DIGITS, max(1, (n - 1).bit_length() - 4))
    # table[j << top | i]: flips of digits 1..top+1 for top digits i in
    # dimension j
    table = _flip_table(keys, top).reshape(-1)
    offsets = np.arange(dim, dtype=np.int64)[:, np.newaxis] << top

    def scramble(x: np.ndarray, z: np.ndarray, t: np.ndarray) -> None:
        # four C-contiguous uint32 (d, m) planes, the halves of z and t: the
        # folded prefix words q, their flips and two for the hash
        q, f = z.view(np.uint32).reshape(2, *x.shape)
        h, s = t.view(np.uint32).reshape(2, *x.shape)
        np.right_shift(x, np.uint64(32), out=q, casting="unsafe")
        np.right_shift(q, np.uint32(16), out=s)
        q ^= s
        # digits 21..52, the low word: the full lowbias32 of the keyed prefix
        np.bitwise_xor(q, keys[0], out=h)
        mix32(h, s)
        np.right_shift(h, np.uint32(16), out=s)
        h ^= s
        x ^= h
        # digits 1..top+1: the table entry at j << top | the top digits.  The
        # index is always in range.  take's default "raise" mode, like a
        # strided ``out``, makes it write to a tile-sized copy of ``out``
        # first; "clip" into the contiguous f writes in place
        index = t.view(np.int64)
        np.right_shift(q, np.uint32(depth - top), out=index)
        index += offsets
        np.take(table, index, out=f, mode="clip")
        # digits top+2..20: bit 31 of the hash of digits 1..k-1, keyed
        for k in range(top + 2, depth + 1):
            np.right_shift(q, np.uint32(depth - k + 1), out=h)
            h ^= keys[k]
            mix32(h, s)
            h >>= np.uint32(31)
            h <<= np.uint32(depth - k)
            f ^= h
        np.left_shift(f, np.uint64(32), out=t)
        x ^= t

    return scramble


def shift_step(dim: int, seed: int, n: int) -> Callable[..., None]:
    """The XOR of a (dim, rows) integer tile with one random 52-bit word
    per dimension, in place; n, the draw's size, is taken to match
    ``owen_step`` and changes nothing."""
    dim, seed = check_int(dim, "dim", 1), check_seed(seed)
    mask = np.uint64((1 << DEFAULT_BIT_DEPTH) - 1)
    # (d, 1): one word per dimension, broadcast along the tile's rows
    words = (hash64_array(seed, _SHIFT_TAG, np.arange(1, dim + 1, dtype=np.uint64)) & mask)[:, np.newaxis]
    return lambda x, *scratch: np.bitwise_xor(x, words, out=x)


def owen_scramble(ps: PointSet, seed: int) -> PointSet:
    """Nested uniform scramble of a base-2 point set (see ``owen_step``)."""
    return PointSet(points=frozen(tiled(ps.n, ps.dim, walk(ps.dim, owen_step(ps.dim, seed, ps.n), ps.points))))


def digital_shift(ps: PointSet, seed: int) -> PointSet:
    """XOR every coordinate's 52-bit expansion with one random word per
    dimension.  Applying the same seed twice restores the input."""
    return PointSet(points=frozen(tiled(ps.n, ps.dim, walk(ps.dim, shift_step(ps.dim, seed, ps.n), ps.points))))
