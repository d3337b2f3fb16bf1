import numpy as np

from qmcrisk.bits import MASK64, child_seed, hash64, hash64_array, mix32, mix64


def test_mix64_range_and_determinism():
    xs = [0, 1, 2, 63, 2**32, 2**63, MASK64]
    for x in xs:
        y = mix64(x)
        assert 0 <= y <= MASK64
        assert mix64(x) == y


def test_mix64_injective_on_sample():
    rng = np.random.default_rng(1)
    xs = [int(v) for v in rng.integers(0, 2**63, size=4096)]
    ys = {mix64(x) for x in xs}
    assert len(ys) == len(set(xs))


def _lowbias32(z):
    """lowbias32 of one 32-bit word, in Python integers."""
    z ^= z >> 16
    z = (z * 0x7FEB352D) & 0xFFFFFFFF
    z ^= z >> 15
    z = (z * 0x846CA68B) & 0xFFFFFFFF
    return z ^ (z >> 16)


def test_mix32_is_lowbias32_but_its_first_and_last_steps():
    rng = np.random.default_rng(2)
    z = rng.integers(0, 2**32, size=1024, dtype=np.uint32)
    want = np.array([_lowbias32(int(v)) for v in z], dtype=np.uint32)
    got = z ^ (z >> np.uint32(16))
    mix32(got, np.empty_like(got))
    assert np.array_equal(got ^ (got >> np.uint32(16)), want)
    assert np.array_equal(got >> np.uint32(16), want >> np.uint32(16))


def test_mix32_folded_skips_only_the_first_xorshift():
    # the Owen step folds once per word: for any 32-bit word p and shift s,
    # (p >> s) ^ (p >> s >> 16) is (p ^ p >> 16) >> s, so mix32 of the
    # folded word shifted, keyed with a folded key, is lowbias32 of
    # (p >> s) ^ key without its last step
    rng = np.random.default_rng(3)
    key = rng.integers(0, 2**32, dtype=np.uint32)
    p = rng.integers(0, 2**32, size=256, dtype=np.uint32)
    for s in range(32):
        shifted = p >> np.uint32(s)
        want = np.array([_lowbias32(int(v) ^ int(key)) for v in shifted], dtype=np.uint32)
        got = ((p ^ (p >> np.uint32(16))) >> np.uint32(s)) ^ (key ^ (key >> np.uint32(16)))
        mix32(got, np.empty_like(got))
        assert np.array_equal(got ^ (got >> np.uint32(16)), want), s


def test_hash64_array_is_hash64_elementwise():
    # wrapping uint64 arithmetic, broadcast words and seeds at both ends of
    # the 64-bit range; a numpy scalar would warn on the wrap
    words = np.array([0, 1, 2**63, MASK64], dtype=np.uint64)
    for seed in (0, 12345, MASK64):
        got = hash64_array(seed, 0x6F77656E, words[:, np.newaxis], np.arange(3, dtype=np.uint64))
        want = [[hash64(seed, 0x6F77656E, int(w), k) for k in range(3)] for w in words]
        assert got.dtype == np.uint64
        assert got.tolist() == want
    assert hash64_array(3, 4).tolist() == [hash64(3, 4)]


def test_hash64_is_order_sensitive():
    assert hash64(1, 2) != hash64(2, 1)
    assert hash64(0, 0, 1) != hash64(0, 1, 0)


def test_hash64_stable_across_calls():
    assert hash64(3, 4, 5) == hash64(3, 4, 5)
    assert hash64(3) != hash64(3, 0)  # arity changes the digest


def test_hash64_masks_wide_inputs():
    assert hash64(2**64 + 7) == hash64(7)


def test_child_seed_separates_replications():
    seeds = {child_seed(42, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert child_seed(42, 0) != child_seed(43, 0)
    for s in list(seeds)[:10]:
        assert 0 <= s <= MASK64
