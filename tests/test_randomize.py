import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from qmcrisk import lowdisc, randomize
from qmcrisk.bits import MIX1, MIX2, hash64
from qmcrisk.errors import ConfigError, PrecisionError
from qmcrisk.experiments import (
    SAMPLERS,
    ExperimentConfig,
    TruthSpec,
    _truth_losses,
    run_convergence,
    sample_losses,
    sample_points,
)
from qmcrisk.lowdisc import (
    DEFAULT_BIT_DEPTH,
    NetParams,
    PointSet,
    is_net,
    sobol_points,
    van_der_corput_points,
)
from qmcrisk.models import ExpModel, SanModel
from qmcrisk.randomize import digital_shift, owen_scramble

_NB = DEFAULT_BIT_DEPTH
_DEPTH = 20  # digits with keyed flips; the rest take one hash of this prefix
_TAIL_MASK = np.uint64((1 << (_NB - _DEPTH)) - 1)
_OWEN_TAG = 0x6F77656E  # "owen"
_SHIFT_TAG = 0x73666874  # "sfht"


def _lowbias32(z):
    """lowbias32 of the uint32 words z, out of place."""
    z = z ^ (z >> np.uint32(16))
    z = z * np.uint32(0x7FEB352D)
    z = z ^ (z >> np.uint32(15))
    z = z * np.uint32(0x846CA68B)
    return z ^ (z >> np.uint32(16))


def _mix64(z):
    """The splitmix64 finalizer of the uint64 words z, out of place."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def _keyed_flips(x, dim_key, depth):
    """Flip words of digits 1..depth of the words x, one full-length pass
    per digit on its keyed prefix: a digit k <= 20 takes bit 31 of the
    lowbias32 of its prefix and the top half of hash64(dim_key, k), a
    deeper one bit 63 of the mix64 of its prefix and hash64(dim_key, k)."""
    flips = np.zeros_like(x)
    for k in range(1, depth + 1):
        prefix = x >> np.uint64(_NB - (k - 1))
        key = hash64(dim_key, k)
        if k <= _DEPTH:
            bit = (_lowbias32(prefix.astype(np.uint32) ^ np.uint32(key >> 32)) >> np.uint32(31)).astype(np.uint64)
        else:
            bit = _mix64(prefix ^ np.uint64(key)) >> np.uint64(63)
        flips |= bit << np.uint64(_NB - k)
    return flips


def _full_depth_owen(ps, seed):
    """The keyed flips on all 52 digits, per column: the scramble before
    its depth was truncated, whose top 20 digits the scramble must keep."""
    ints = ps.as_integers()
    out = np.empty_like(ints)
    for j in range(ps.dim):
        out[:, j] = ints[:, j] ^ _keyed_flips(ints[:, j], hash64(seed, _OWEN_TAG, j + 1), _NB)
    return out * 2.0**-_NB


def _reference_owen(ps, seed):
    """The scramble per column: keyed flips on digits 1..20 and, on digits
    21..52, the lowbias32 of the 20-digit prefix and the top half of the
    tail key.  The reference the tiled loop must equal bit for bit."""
    ints = ps.as_integers()
    out = np.empty_like(ints)
    for j in range(ps.dim):
        x = ints[:, j]
        dim_key = hash64(seed, _OWEN_TAG, j + 1)
        prefix = (x >> np.uint64(_NB - _DEPTH)).astype(np.uint32)
        tail = _lowbias32(prefix ^ np.uint32(hash64(dim_key, 0) >> 32)).astype(np.uint64)
        out[:, j] = x ^ _keyed_flips(x, dim_key, _DEPTH) ^ tail
    return out * 2.0**-_NB


def _flips(ps, seed):
    """Per-point, per-coordinate flip words of the keyed Owen scramble."""
    out = owen_scramble(ps, seed)
    return out.as_integers() ^ ps.as_integers()


def _reference_shift(ps, seed):
    """The shift as one whole-array XOR of the integers: the reference the
    tiled loop must equal bit for bit."""
    words = [hash64(seed, _SHIFT_TAG, j + 1) & ((1 << _NB) - 1) for j in range(ps.dim)]
    return ps.as_integers() ^ np.array(words, dtype=np.uint64)[np.newaxis, :]


# tile shapes for the tiled loop: ragged last tiles, one-row and one-column
# sets; the comments give the tiles of 2^17 coordinates
_TILE_SHAPES = [
    (1, 1),
    (3, 15),
    (70000, 1),  # past the 2^16 columns of one Sobol' lead segment
    (3 * 4369 + 7, 15),  # a full 8192-row tile and a ragged one (13114 rows)
    (2 * 1024 + 3, 64),  # a full 2048-row tile and a ragged one
    (4 * 1024 + 5, 64),  # past 2^12 points: the Owen flip table's full 12 digits
]

_SCHEMES = [owen_scramble, digital_shift]


# ---------------------------------------------------------------- seeds and input


@pytest.mark.parametrize("scheme", _SCHEMES, ids=["owen", "digital_shift"])
def test_scramble_spec_rejects_seeds_outside_64_bits(scheme):
    # -1 and 2^64 would alias 2^64 - 1 and 0 in the 64-bit hash
    ps = sobol_points(8, 2)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            scheme(ps, seed)
    assert scheme(ps, 2**64 - 1).n == 8


def test_non_dyadic_input_is_rejected():
    ps = PointSet.from_array([1.0 / 3.0])
    with pytest.raises(PrecisionError):
        owen_scramble(ps, 0)
    with pytest.raises(PrecisionError):
        digital_shift(ps, 0)


# ---------------------------------------------------------------- nested scrambling


def test_scramble_digit_one_flip_is_shared_by_all_points():
    flips = _flips(sobol_points(256, 3), seed=9)
    top = flips >> np.uint64(_NB - 1)
    assert np.all(top == top[0])


def test_scramble_digit_k_flip_depends_only_on_the_prefix():
    # random words plus, for each depth k, copies that differ from them
    # first at digit k: every depth has pairs sharing exactly k-1 digits
    rng = np.random.default_rng(4)
    base = rng.integers(0, 1 << _NB, size=(64, 2), dtype=np.uint64)
    words = np.concatenate([base] + [base ^ np.uint64(1 << (_NB - k)) for k in range(1, _NB + 1)])
    ps = PointSet.from_array(words * 2.0**-_NB)
    flips = [_flips(ps, seed) for seed in range(32)]
    for j in range(2):
        for k in range(1, _NB + 1):
            prefix = words[:, j] >> np.uint64(_NB - k + 1)
            _, first, group = np.unique(prefix, return_index=True, return_inverse=True)
            varies = False
            for seed, f in enumerate(flips):
                flip = (f[:, j] >> np.uint64(_NB - k)) & np.uint64(1)
                assert np.array_equal(flip, flip[first][group.ravel()]), f"seed {seed} dim {j + 1} digit {k}"
                varies |= np.unique(flip).size == 2
            # nested, not a digital shift: the flip varies with the prefix.
            # At k = 2 there are two prefixes, so one seed shows it only
            # with odds 1/2; all 32 miss it with odds 2^-32
            assert varies or k == 1, f"dim {j + 1} digit {k}"


def test_scramble_flips_every_digit_position():
    flips = _flips(sobol_points(256, 16), seed=9)
    assert np.bitwise_or.reduce(flips, axis=None) == (1 << _NB) - 1


@pytest.mark.parametrize("n, d", _TILE_SHAPES)
def test_scramble_matches_the_per_column_reference(n, d):
    ps = sobol_points(n, d)
    for seed in (0, 2**64 - 1):
        got = owen_scramble(ps, seed).points
        assert np.array_equal(got, _reference_owen(ps, seed)), f"seed {seed}"


@pytest.mark.parametrize("n, d", _TILE_SHAPES)
def test_scramble_keeps_the_top_digits_of_the_full_depth_scramble(n, d):
    ps = sobol_points(n, d)
    for seed in (0, 2**64 - 1):
        got = owen_scramble(ps, seed).as_integers() >> np.uint64(_NB - _DEPTH)
        want = PointSet.from_array(_full_depth_owen(ps, seed)).as_integers() >> np.uint64(_NB - _DEPTH)
        assert np.array_equal(got, want), f"seed {seed}"


def test_scramble_tail_depends_only_on_the_prefix():
    # random words plus copies that keep their top 20 digits and change the
    # rest: a copy must get its word's tail flips, and words with distinct
    # prefixes distinct 32-bit tails (a collision among 64 has odds ~5e-7)
    rng = np.random.default_rng(7)
    base = rng.integers(0, 1 << _NB, size=(64, 2), dtype=np.uint64)
    other = base ^ rng.integers(1, 1 << (_NB - _DEPTH), size=(64, 2), dtype=np.uint64)
    words = np.concatenate([base, other])
    ps = PointSet.from_array(words * 2.0**-_NB)
    tails = _flips(ps, seed=9) & _TAIL_MASK
    assert np.array_equal(tails[:64], tails[64:])
    for j in range(2):
        prefixes = np.unique(base[:, j] >> np.uint64(_NB - _DEPTH)).size
        assert np.unique(tails[:64, j]).size == prefixes, f"dim {j + 1}"


def _tail_chi2(words):
    """Chi-square statistic of digits 21..24 of the words over 16 cells."""
    counts = np.bincount(((words >> np.uint64(_NB - _DEPTH - 4)) & np.uint64(15)).astype(np.int64), minlength=16)
    expected = words.size / 16
    return float(((counts - expected) ** 2 / expected).sum())


def test_scramble_tail_digits_are_uniform():
    # digits 21..24 of a scrambled 2^12-point batch, per dimension, and of
    # the scrambled origin across 1000 seeds, at criterion 8's level
    crit = float(stats.chi2.isf(0.001, 15))
    ints = owen_scramble(sobol_points(1 << 12, 2), 0).as_integers()
    for j in range(2):
        assert _tail_chi2(ints[:, j]) < crit, f"dim {j + 1}"
    origin = PointSet.from_array([[0.0]])
    words = np.array([owen_scramble(origin, seed).as_integers()[0, 0] for seed in range(1000)])
    assert _tail_chi2(words) < crit


def test_scramble_flips_are_balanced_and_pairwise_uncorrelated():
    # 2^12 20-digit prefixes whose digits 1..12 run through all 2^12
    # values, so each keyed flip of digits 13..20 and each tail word hashes
    # an input of its own, and beside them, for each digit j = 1..19, the
    # same prefixes with digit j flipped.  Over 64 seeds the flips of each
    # digit 13..20 and each bit of the tail word are balanced, and the
    # flips of digit k at two prefixes differing in one digit j < k are
    # uncorrelated, each within 4.5 sigma; every pair is counted once, from
    # its member with digit j = 0, so no hash input enters a mean twice
    bound = 4.5
    rng = np.random.default_rng(15)
    prefixes = np.arange(1 << 12, dtype=np.uint64) << np.uint64(8) | rng.integers(0, 1 << 8, size=1 << 12, dtype=np.uint64)
    words = np.concatenate([prefixes] + [prefixes ^ np.uint64(1 << (_DEPTH - j)) for j in range(1, _DEPTH)])
    ps = PointSet.from_array((words << np.uint64(_NB - _DEPTH)) * 2.0**-_NB)
    # flips[s, j, i]: seed s, prefix i, with digit j flipped (j = 0: none)
    flips = np.stack([_flips(ps, seed)[:, 0].reshape(_DEPTH, 1 << 12) for seed in range(64)])
    for k in range(13, _DEPTH + 1):
        digit = (flips >> np.uint64(_NB - k)) & np.uint64(1)
        mean = digit[:, 0].mean()
        assert abs(mean - 0.5) <= bound * 0.5 / digit[:, 0].size**0.5, f"digit {k}: mean {mean}"
        signs = 1.0 - 2.0 * digit
        for j in range(1, k):
            once = (prefixes >> np.uint64(_DEPTH - j)) & np.uint64(1) == 0
            products = signs[:, 0, once] * signs[:, j, once]
            corr = products.mean()
            assert abs(corr) <= bound / products.size**0.5, f"digit {k}, prefixes apart in digit {j}: {corr}"
    tails = flips[:, 0] & _TAIL_MASK
    for b in range(_NB - _DEPTH):
        mean = ((tails >> np.uint64(b)) & np.uint64(1)).mean()
        assert abs(mean - 0.5) <= bound * 0.5 / tails.size**0.5, f"tail bit {b}: mean {mean}"


def test_scramble_is_reproducible_and_seed_sensitive():
    ps = sobol_points(256, 2)
    a = owen_scramble(ps, 5).points
    b = owen_scramble(ps, 5).points
    c = owen_scramble(ps, 6).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scramble_is_pointwise_so_prefixes_agree():
    # scrambling a longer batch and slicing equals scrambling the prefix
    # the second pair ends mid-tile: 5000 rows of 4369-row tiles
    for n_long, n_short, d in ((1024, 256, 3), (2**14, 5000, 15)):
        long = owen_scramble(sobol_points(n_long, d), 11).points
        short = owen_scramble(sobol_points(n_short, d), 11).points
        assert np.array_equal(long[:n_short], short), (n_long, n_short, d)


def test_scramble_preserves_net_property():
    for m in (4, 8):
        ps = sobol_points(2**m, 2)
        for seed in range(20):
            out = owen_scramble(ps, seed)
            assert is_net(out, NetParams(t=0, m=m, d=2)).ok, f"m={m} seed={seed}"


def test_scramble_keeps_one_point_per_cell_in_d1():
    # a scrambled (0, m, 1)-net still has one point per dyadic cell
    ps = van_der_corput_points(256)
    out = owen_scramble(ps, 3)
    cells = np.sort((out.points[:, 0] * 256).astype(np.int64))
    assert np.array_equal(cells, np.arange(256))


def test_scramble_uses_independent_streams_per_dimension():
    ps = sobol_points(64, 2)
    out = owen_scramble(ps, 1).points
    assert not np.array_equal(out[:, 0], out[:, 1])


def test_scramble_moves_the_origin():
    ps = sobol_points(16, 2)
    out = owen_scramble(ps, 12345).points
    assert np.any(out[0] != 0.0)  # all-zero flips for 104 digits is absurd
    assert np.all((out >= 0.0) & (out < 1.0))


def test_scramble_marginal_means_are_centered():
    n = 1 << 12
    bound = 4.0 * (12.0 * n) ** -0.5 * 0.5
    ps = sobol_points(n, 2)
    for seed in (0, 1, 2):
        out = owen_scramble(ps, seed).points
        assert np.all(np.abs(out.mean(axis=0) - 0.5) <= bound)


# ---------------------------------------------------------------- digital shift


def test_shift_of_origin_reveals_the_word():
    origin = PointSet.from_array([[0.0, 0.0]])
    word = digital_shift(origin, 21).as_integers()[0]
    ps = sobol_points(64, 2)
    shifted = digital_shift(ps, 21)
    assert np.array_equal(shifted.as_integers(), ps.as_integers() ^ word[np.newaxis, :])


def test_shift_is_an_involution():
    ps = sobol_points(128, 3)
    back = digital_shift(digital_shift(ps, 4), 4)
    assert np.array_equal(back.points, ps.points)


def test_shifts_compose_by_xor():
    ps = sobol_points(32, 2)
    origin = PointSet.from_array([[0.0, 0.0]])
    w1 = digital_shift(origin, 1).as_integers()[0]
    w2 = digital_shift(origin, 2).as_integers()[0]
    twice = digital_shift(digital_shift(ps, 1), 2).as_integers()
    assert np.array_equal(twice, ps.as_integers() ^ (w1 ^ w2)[np.newaxis, :])


def test_shift_preserves_grid_gaps():
    # on a full dyadic grid the shift permutes cells and offsets the
    # remaining digits uniformly, so sorted gaps are untouched
    ps = van_der_corput_points(256)
    out = digital_shift(ps, 8)
    gaps = np.diff(np.sort(out.points[:, 0]))
    assert np.all(gaps == 1.0 / 256)


def test_shift_is_reproducible_and_seed_sensitive():
    ps = sobol_points(64, 2)
    a = digital_shift(ps, 5).points
    b = digital_shift(ps, 5).points
    c = digital_shift(ps, 6).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n, d", _TILE_SHAPES)
def test_shift_matches_the_whole_array_reference(n, d):
    ps = sobol_points(n, d)
    for seed in (0, 2**64 - 1):
        got = digital_shift(ps, seed).as_integers()
        assert np.array_equal(got, _reference_shift(ps, seed)), f"seed {seed}"


# ---------------------------------------------------------------- threads


# 49 walk tiles each, the last one ragged: enough for three workers
_POOL_SHAPES = [(3 * 16 * lowdisc._tile_rows(d) + extra, d) for d, extra in ((15, 7), (64, 5))]


@pytest.mark.parametrize("n, d", _POOL_SHAPES)
def test_walk_does_not_depend_on_the_worker_count(monkeypatch, pool_widths, fine_switching, n, d):
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 1)
    ps = sobol_points(n, d)
    draws = {
        "sobol": lambda: sample_points("qmc-sobol", n, d, seed=1),
        "owen": lambda: sample_points("rqmc-owen", n, d, seed=1),
        "shift": lambda: sample_points("rqmc-shift", n, d, seed=1),
        "sobol_points": lambda: sobol_points(n, d).points,
        "owen_scramble": lambda: owen_scramble(ps, 1).points,
        "digital_shift": lambda: digital_shift(ps, 1).points,
    }
    digests = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(lowdisc, "_usable_cpus", lambda cpus=cpus: cpus)
        digests.append({name: hashlib.sha256(draw()).hexdigest() for name, draw in draws.items()})
    assert pool_widths == [2] * len(draws) + [3] * len(draws)
    assert digests[1] == digests[0]
    assert digests[2] == digests[0]


@pytest.mark.parametrize("n, d", _POOL_SHAPES)
def test_walk_sink_gets_every_row_once(monkeypatch, pool_widths, fine_switching, n, d):
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 1)
    want = lowdisc.walk(n, d, randomize.owen_step(d, 1, n))
    for cpus in (1, 3):
        monkeypatch.setattr(lowdisc, "_usable_cpus", lambda cpus=cpus: cpus)
        got = np.full((n, d), np.nan)
        starts = []
        lock = threading.Lock()

        def sink(start, u):
            got[start : start + u.shape[1]] = u.T
            with lock:
                starts.append(start)

        assert lowdisc.walk(n, d, randomize.owen_step(d, 1, n), sink=sink) is None
        assert len(starts) == len(set(starts)) == 49, cpus
        assert got.tobytes() == want.tobytes(), cpus
    assert pool_widths == [3]


def test_draws_do_not_depend_on_the_tile_size(monkeypatch):
    # the reproducibility contract names block size: tiles of 2^15, 2^16
    # and 2^17 coordinates cut these draws, and the Sobol' lead's segments,
    # at different rows, and each has a ragged last tile
    shapes = [(3 * 8192 + 11, 15), (5003, 64), (70001, 1)]
    models = [(SanModel(), shapes[0][0]), (ExpModel(), shapes[2][0])]
    blocks = {model.dim: np.random.default_rng(4).random((n, model.dim)) for model, n in models}
    digests = []
    for coords in (1 << 15, 1 << 16, 1 << 17):
        monkeypatch.setattr(lowdisc, "_TILE_COORDS", coords)
        digest = {}
        for n, d in shapes:
            ps = sobol_points(n, d)
            for sampler in ("qmc-sobol", "rqmc-owen", "rqmc-shift"):
                digest[sampler, n, d] = hashlib.sha256(sample_points(sampler, n, d, seed=4)).hexdigest()
            digest["owen_scramble", n, d] = hashlib.sha256(owen_scramble(ps, 4).points).hexdigest()
            digest["digital_shift", n, d] = hashlib.sha256(digital_shift(ps, 4).points).hexdigest()
        for model, n in models:
            for sampler in SAMPLERS:
                losses = sample_losses(model, sampler, n, 4)
                digest["sample_losses", sampler, model.dim] = hashlib.sha256(losses).hexdigest()
            digest["evaluate", model.dim] = hashlib.sha256(model.evaluate(blocks[model.dim])).hexdigest()
            truth = _truth_losses(model, np.random.SeedSequence(4), 5, n)
            digest["_truth_losses", model.dim] = hashlib.sha256(truth).hexdigest()
        digests.append(digest)
    assert digests[1] == digests[0]
    assert digests[2] == digests[0]


def _count_table_builds(monkeypatch):
    """The sizes of the Owen flip tables built from now on.  Only the
    table's build runs the keyed loop from digit 1; a tile's loop starts
    below the table's digits."""
    built = []
    flip_digits = randomize._flip_digits

    def counting_flip_digits(p, f, z, t, keys, first, last):
        if first == 1:
            built.append(f.shape)
        flip_digits(p, f, z, t, keys, first, last)

    monkeypatch.setattr(randomize, "_flip_digits", counting_flip_digits)
    return built


def test_pooled_owen_step_builds_its_table_once(monkeypatch, pool_widths, fine_switching):
    built = _count_table_builds(monkeypatch)
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 3)
    n, d = _POOL_SHAPES[1]
    for seed in range(4):
        sample_points("rqmc-owen", n, d, seed=seed)
    assert pool_widths == [3] * 4
    assert built == [(d, 1 << randomize._OWEN_TABLE_DIGITS)] * 4


def test_non_dyadic_input_is_rejected_on_a_pool_thread(monkeypatch, pool_widths, fine_switching):
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 1)
    n, d = _POOL_SHAPES[0]
    pts = sobol_points(n, d).points.copy()
    pts[-1, 7] = 1.0 / 3.0  # in the last tile, which worker 0 of 3 runs
    ps = PointSet(pts)
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 3)
    with pytest.raises(PrecisionError):
        owen_scramble(ps, 1)
    assert pool_widths == [3]


# a draw's size and the digits of its flip table, min(12, ceil(log2 n)), at
# least one; 2 is a cold-start probe's draw
_TABLE_DIGITS = {1: 1, 2: 1, 3: 2, 4095: 12, 4096: 12, 4097: 12, 1 << 20: 12}


def test_owen_factory_sizes_the_table_to_the_draw(monkeypatch):
    built = _count_table_builds(monkeypatch)
    d = 15
    x = sobol_points(4097, d).as_integers().T
    for n, top in _TABLE_DIGITS.items():
        built.clear()
        step = randomize.owen_step(d, 0, n)
        assert built == [(d, 1 << top)], n  # d << top entries, before any tile
        tiles = x[:, : min(n, 4097)].copy()
        for start in range(0, tiles.shape[1], 1024):
            tile = tiles[:, start : start + 1024]
            step(tile, np.empty_like(tile), np.empty_like(tile))
        assert len(built) == 1, n  # no build per tile


@pytest.mark.parametrize("n", list(_TABLE_DIGITS))
def test_owen_step_matches_the_keyed_loop_reference_at_every_table_size(n):
    # n only sizes the table, so any tile, here Sobol' points and random
    # dyadic points whose prefixes cover the whole table, gets the
    # reference's bits, whatever the draw the step was made for
    rng = np.random.default_rng(14)
    words = rng.integers(0, 1 << _NB, size=(4096, 3), dtype=np.uint64)
    ps = PointSet(np.vstack([sobol_points(4097, 3).points, words * 2.0**-_NB]))
    for seed in (0, 7, 2**64 - 1):
        x = ps.as_integers().T.copy()
        randomize.owen_step(ps.dim, seed, n)(x, np.empty_like(x), np.empty_like(x))
        assert np.array_equal(x.T * 2.0**-_NB, _reference_owen(ps, seed)), f"seed {seed}"


def test_owen_draws_of_every_table_size_are_prefixes_of_a_longer_draw():
    # the table of a short draw holds the keyed loop's flips, so a draw of
    # n points is the first n points of a longer draw with a larger table
    for seed in (0, 2**64 - 1):
        long = sample_points("rqmc-owen", 1 << 13, 15, seed=seed)
        for n in (1, 2, 3, 4095, 4096, 4097):
            assert np.array_equal(sample_points("rqmc-owen", n, 15, seed=seed), long[:n]), f"seed {seed}, n {n}"


def test_a_failing_tile_stops_the_other_workers(monkeypatch, pool_widths, fine_switching):
    # tile 0 fails on worker 0 of 3; without a stop the other two workers
    # would convert all 32 of their tiles before the error surfaced.  The
    # barrier holds every worker at its first tile until all three have
    # started, since map cancels the tasks not yet started once one fails
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 1)
    n, d = _POOL_SHAPES[0]
    pts = sobol_points(n, d).points.copy()
    pts[0, 7] = 1.0 / 3.0
    ps = PointSet(pts)
    converted = []
    started = set()
    all_started = threading.Barrier(3, timeout=60)
    grid_integers = lowdisc.grid_integers

    def counting_grid_integers(coords, out, scaled):
        converted.append(coords.shape)
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            all_started.wait()
        return grid_integers(coords, out, scaled)

    monkeypatch.setattr(lowdisc, "grid_integers", counting_grid_integers)
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 3)
    with pytest.raises(PrecisionError):
        owen_scramble(ps, 1)
    assert pool_widths == [3]
    assert len(converted) < 49 / 2


def test_walk_starts_no_pool_where_none_belongs(monkeypatch, pool_widths):
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 4)
    rows = lowdisc._tile_rows(15)
    sample_points("rqmc-owen", 2, 15, seed=0)  # a cold-start probe's draw
    sample_points("rqmc-owen", 1 << 16, 15, seed=0)  # the study's largest N
    # a thread other than the main one belongs to a pool that owns the CPUs
    shapes = []
    thread = threading.Thread(target=lambda: shapes.append(sample_points("rqmc-owen", 1 << 19, 15, seed=0).shape))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert shapes == [(1 << 19, 15)]
    assert pool_widths == []
    sample_points("rqmc-owen", 32 * rows, 15, seed=0)  # 32 tiles: two workers
    assert pool_widths == [2]


# ---------------------------------------------------------------- memory


def _one_study_replication(ps):
    cfg = ExperimentConfig(
        model=SanModel(),
        samplers=("rqmc-owen",),
        n_grid=(ps.n,),
        replications=1,
        truth=TruthSpec("explicit", v=5.68, c=4.84),
    )
    run_convergence(cfg)


# each call beside the (2^16, 15) set it randomizes, draws or evaluates
_PEAK_CASES = {
    "owen": lambda ps: owen_scramble(ps, 1),
    "digital_shift": lambda ps: digital_shift(ps, 1),
    "sample_points-owen": lambda ps: sample_points("rqmc-owen", ps.n, ps.dim, seed=1),
    "sample_points-shift": lambda ps: sample_points("rqmc-shift", ps.n, ps.dim, seed=1),
    "study-replication": _one_study_replication,
}


@pytest.mark.parametrize("case", list(_PEAK_CASES))
def test_randomization_peak_memory_is_the_output_plus_tiles(case):
    # beside one N x d output a randomization holds tile-sized blocks only,
    # no further N x d array (an integer copy or an unrandomized Sobol'
    # array alone would add 1.0x); a study replication holds one sampled
    # N x d array, the N losses and the model's tiles
    ps = sobol_points(1 << 16, 15)
    tracemalloc.start()
    try:
        _PEAK_CASES[case](ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ps.points.nbytes


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", list(_PEAK_CASES))
def test_randomization_peak_memory_with_four_cpus(monkeypatch, case):
    # 16 tiles are too few for a second worker, so the peak is the serial one
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 4)
    ps = sobol_points(1 << 16, 15)
    assert _traced_peak(lambda: _PEAK_CASES[case](ps)) < 1.5 * ps.points.nbytes


@pytest.mark.parametrize("sampler", ["rqmc-owen", "rqmc-shift"])
def test_pooled_draw_peak_memory_is_the_output_plus_scratch(monkeypatch, pool_widths, sampler):
    # 64 tiles on four workers: 12 tiles of scratch, 3/16 of the output,
    # besides the Sobol' lead tile and the Owen table
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 4)
    d = 15
    n = 64 * lowdisc._tile_rows(d)
    assert _traced_peak(lambda: sample_points(sampler, n, d, seed=1)) < 1.35 * n * d * 8
    assert pool_widths == [4]
