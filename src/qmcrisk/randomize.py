"""Randomization of digital point sets.

Two schemes, both reproducible from a 64-bit seed:

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

Both operate on the exact dyadic integer grid, so identical inputs give
byte-identical outputs.

Layout of the Owen scramble: the points are processed in row tiles of
``max(1, 2^16 // d)`` rows.  Each tile is copied dimension-major into a
contiguous (d, rows) uint64 block, the 52 digit passes run in place on
that block and two scratch blocks of the same shape, and the block is
written back transposed.  Every numpy call thus covers about 2^16
coordinates (512 KiB).  That size is a constant, not a setting, chosen
for the study's thread pool: smaller calls hand the GIL back so often
that the threads stop overlapping, and larger tiles leave the cache.  On
a 2-core host with numpy 2.4.6, two threads ran eight 2^16 x 15
scrambles in 0.94 s at 2^16 coordinates per tile, against 1.12 s at
2^17, 1.32 s at 2^15 and 2.17 s at 2^14 (slower than one thread); one
2^19 x 15 scramble took 1.5-1.8 s at every size from 2^14 to 2^17.
Tiling changes no output bit, since each coordinate's flips depend on
that coordinate alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import MIX1, MIX2, check_seed, hash64
from .errors import ConfigError
from .lowdisc import DEFAULT_BIT_DEPTH, PointSet, PointSetMeta

KIND_NONE = "none"
KIND_OWEN = "owen"
KIND_SHIFT = "digital_shift"

_KINDS = (KIND_NONE, KIND_OWEN, KIND_SHIFT)

_OWEN_TAG = 0x6F77656E  # "owen"
_SHIFT_TAG = 0x73666874  # "sfht"

# coordinates per Owen tile; the module docstring gives the reason
_TILE_COORDS = 1 << 16


@dataclass(frozen=True)
class ScrambleSpec:
    """What randomization to apply and with which seed (0 <= seed < 2^64)."""

    kind: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown randomization kind {self.kind!r}, expected one of {_KINDS}")
        object.__setattr__(self, "seed", check_seed(self.seed))


def owen_scramble(ps: PointSet, spec: ScrambleSpec) -> PointSet:
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
    if spec.kind != KIND_OWEN:
        raise ConfigError(f"spec.kind must be {KIND_OWEN!r}, got {spec.kind!r}")
    nb = DEFAULT_BIT_DEPTH
    ints = ps.as_integers()
    n, d = ints.shape
    # keys[k - 1] is the (d, 1) column of per-dimension keys for digit k
    dim_keys = [hash64(spec.seed, _OWEN_TAG, j + 1) for j in range(d)]
    keys = np.array(
        [[[hash64(key, k)] for key in dim_keys] for k in range(1, nb + 1)], dtype=np.uint64
    )
    rows = min(n, max(1, _TILE_COORDS // d))
    block = np.empty((d, rows), dtype=np.uint64)
    z = np.empty_like(block)
    t = np.empty_like(block)
    out = np.empty((n, d))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        x, zm, tm = block[:, :m], z[:, :m], t[:, :m]
        x[...] = ints[start : start + m].T
        for k in range(nb, 0, -1):
            # digits 1..k-1; empty (zero) for k = 1 since x < 2^nb
            np.right_shift(x, np.uint64(nb - k + 1), out=zm)
            zm ^= keys[k - 1]
            np.right_shift(zm, np.uint64(30), out=tm)
            zm ^= tm
            zm *= np.uint64(MIX1)
            np.right_shift(zm, np.uint64(27), out=tm)
            zm ^= tm
            zm *= np.uint64(MIX2)
            zm >>= np.uint64(63)
            zm <<= np.uint64(nb - k)
            x ^= zm
        np.multiply(x.T, 2.0 ** -nb, out=out[start : start + m])
    return PointSet(
        points=out,
        meta=PointSetMeta(ps.meta.generator, randomization="owen", seed=spec.seed),
    )


def digital_shift(ps: PointSet, spec: ScrambleSpec) -> PointSet:
    """XOR every coordinate's 52-bit expansion with one random word per
    dimension.  Applying the same spec twice restores the input."""
    if spec.kind != KIND_SHIFT:
        raise ConfigError(f"spec.kind must be {KIND_SHIFT!r}, got {spec.kind!r}")
    nb = DEFAULT_BIT_DEPTH
    ints = ps.as_integers()
    words = np.array(
        [hash64(spec.seed, _SHIFT_TAG, j + 1) for j in range(ps.dim)], dtype=np.uint64
    )
    words &= np.uint64((1 << nb) - 1)
    out = ints ^ words[np.newaxis, :]
    return PointSet(
        points=out * 2.0 ** -nb,
        meta=PointSetMeta(ps.meta.generator, randomization="digital_shift", seed=spec.seed),
    )


def randomize(ps: PointSet, spec: ScrambleSpec) -> PointSet:
    """Dispatch on spec.kind; kind "none" returns the input unchanged."""
    if spec.kind == KIND_NONE:
        return ps
    if spec.kind == KIND_OWEN:
        return owen_scramble(ps, spec)
    return digital_shift(ps, spec)
