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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import hash64, mix64_vec
from .errors import ConfigError
from .lowdisc import DEFAULT_BIT_DEPTH, PointSet, PointSetMeta

KIND_NONE = "none"
KIND_OWEN = "owen"
KIND_SHIFT = "digital_shift"

_KINDS = (KIND_NONE, KIND_OWEN, KIND_SHIFT)

_OWEN_TAG = 0x6F77656E  # "owen"
_SHIFT_TAG = 0x73666874  # "sfht"


@dataclass(frozen=True)
class ScrambleSpec:
    """What randomization to apply and with which seed."""

    kind: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown randomization kind {self.kind!r}, expected one of {_KINDS}")


def owen_scramble(ps: PointSet, spec: ScrambleSpec) -> PointSet:
    """Nested uniform scramble of a base-2 point set.

    The flip applied to digit k of a coordinate is a pseudorandom bit keyed
    by (seed, dimension, k, digits 1..k-1 of that coordinate), so points
    sharing a digit prefix share its permutation, which is exactly the
    nested structure that keeps net parameters intact.  All 52 digits are
    scrambled.
    """
    if spec.kind != KIND_OWEN:
        raise ConfigError(f"spec.kind must be {KIND_OWEN!r}, got {spec.kind!r}")
    nb = DEFAULT_BIT_DEPTH
    ints = ps.as_integers()
    out = np.empty_like(ints)
    for j in range(ps.dim):
        x = ints[:, j]
        dim_key = hash64(spec.seed, _OWEN_TAG, j + 1)
        flips = np.zeros_like(x)
        for k in range(1, nb + 1):
            # digits 1..k-1; empty (zero) for k = 1 since x < 2^nb
            prefix = x >> np.uint64(nb - (k - 1))
            prefix ^= np.uint64(hash64(dim_key, k))
            bit = mix64_vec(prefix)
            bit >>= np.uint64(63)
            bit <<= np.uint64(nb - k)
            flips |= bit
        out[:, j] = x ^ flips
    return PointSet(
        points=out * 2.0 ** -nb,
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
