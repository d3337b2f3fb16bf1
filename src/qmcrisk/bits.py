"""Keyed 64-bit and 32-bit mixing utilities.

Every source of randomness in this package that is not a numpy Generator
is derived from these functions: Owen-scramble flip bits, digital-shift
words, and per-replication child seeds.  They are pure functions of their
integer inputs, so any consumer is reproducible and safe to call from
multiple threads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigError

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15

MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def _bound(x: int) -> str:
    """x as text; past 2^32, a 2^k or 2^k - 1 as such."""
    k = x.bit_length()
    if x < 1 << 32 or (x & (x - 1) and x & (x + 1)):
        return str(x)
    return f"2^{k - 1}" if x & (x - 1) == 0 else f"2^{k} - 1"


def check_int(value, name: str, lo: int, hi: Optional[int] = None, why: str = "") -> int:
    """value as an int; ConfigError unless it is an integer (an int, a numpy
    integer or an integer-valued float) with lo <= value and, if given,
    value <= hi.  The message names the input, its range and then ``why``,
    not the value, which may be too long to print."""
    try:
        n = int(value)
        if n == value and lo <= n and (hi is None or n <= hi):
            return n
    except (TypeError, ValueError, OverflowError):  # non-numbers, NaN, infinities
        pass
    span = f"lie in {lo}..{_bound(hi)}" if hi is not None else f"be an integer >= {lo}"
    raise ConfigError(f"{name}: must {span}" + (f", {why}" if why else ""))


def check_seed(seed: int, name: str = "seed") -> int:
    """The seed as an int in 0..2^64 - 1: Owen and shift seeds enter a 64-bit
    hash and MC seeds a SeedSequence, where another would alias or fail late."""
    return check_int(seed, name, 0, MASK64)


def mix64(z: int) -> int:
    """Finalizing 64-bit avalanche mix (splitmix64 finalizer)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


_HASH_START = 0x243F6A8885A308D3  # pi fraction, arbitrary fixed start


def hash64(*words: int) -> int:
    """Hash a tuple of integers to one 64-bit word.

    Order-sensitive: hash64(a, b) != hash64(b, a) in general.
    """
    h = _HASH_START
    for w in words:
        h = mix64((h + GOLDEN64) ^ (w & MASK64))
    return h


def hash64_array(*words) -> np.ndarray:
    """``hash64`` elementwise over words, ints in [0, 2^64) or uint64 arrays,
    broadcast into an array of at least one dimension.  uint64 arrays wrap
    as hash64's masks do; numpy scalars would warn on the wrap."""
    shape = np.broadcast_shapes((1,), *(np.shape(w) for w in words))
    h = np.full(shape, _HASH_START, dtype=np.uint64)
    for w in words:
        h += np.uint64(GOLDEN64)
        h ^= np.asarray(w, dtype=np.uint64)
        # mix64
        h ^= h >> np.uint64(30)
        h *= np.uint64(MIX1)
        h ^= h >> np.uint64(27)
        h *= np.uint64(MIX2)
        h ^= h >> np.uint64(31)
    return h


def mix32(z: np.ndarray, t: np.ndarray) -> None:
    """lowbias32 (hash-prospector) on the uint32 array z, in place, without
    its first ``z ^ (z >> 16)`` step, which a caller folds into its input
    (for a key, into the key), nor its last, which changes none of the top
    16 bits; t is scratch of z's shape."""
    z *= np.uint32(0x7FEB352D)
    np.right_shift(z, np.uint32(15), out=t)
    z ^= t
    z *= np.uint32(0x846CA68B)


def child_seed(master_seed: int, replication: int) -> int:
    """Child seed for one replication of a randomized experiment.

    Stable across runs and platforms; replications get well-separated
    streams from a single master seed.
    """
    return hash64(master_seed, 0x7265706C, replication)  # "repl" tag
