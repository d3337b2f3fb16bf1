import itertools
import math
import signal
import threading
import time
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from qmcrisk.errors import ConfigError, PrecisionError, WorkLimitError
from qmcrisk.lowdisc import (
    DEFAULT_BIT_DEPTH,
    NetParams,
    PointSet,
    _compositions,
    _directions,
    find_t,
    is_net,
    radical_inverse,
    sobol_points,
    star_discrepancy_1d,
    van_der_corput_points,
)
from qmcrisk.randomize import owen_scramble

import qmcrisk.lowdisc as lowdisc

# ---------------------------------------------------------------- radical inverse


def test_radical_inverse_base2_values():
    assert radical_inverse(0, 2) == 0.0
    assert radical_inverse(1, 2) == 0.5
    assert radical_inverse(2, 2) == 0.25
    assert radical_inverse(3, 2) == 0.75
    # 6 = 110 in binary reflects to .011 = 3/8
    assert radical_inverse(6, 2) == 0.375


def test_radical_inverse_base3():
    # 5 = 12 in base 3 reflects to .21 = 2/3 + 1/9 = 7/9
    assert radical_inverse(5, 3) == pytest.approx(7.0 / 9.0, abs=1e-15)


def test_radical_inverse_injective_and_bounded():
    vals = [radical_inverse(i, 2) for i in range(1024)]
    assert len(set(vals)) == 1024
    assert all(0.0 <= v < 1.0 for v in vals)


def test_radical_inverse_rejects_bad_args():
    with pytest.raises(ConfigError):
        radical_inverse(-1, 2)
    with pytest.raises(ConfigError):
        radical_inverse(3, 1)
    # fractions used to run: radical_inverse(2.5) gave 0.5, base 2.5 gave 0.32
    for i in (2.5, "3", None):
        with pytest.raises(ConfigError, match="^i: must be an integer >= 0$"):
            radical_inverse(i)
    for b in (2.5, "3", None):
        with pytest.raises(ConfigError, match="^b: must be an integer >= 2$"):
            radical_inverse(5, b)
    assert radical_inverse(6.0, np.int64(2)) == radical_inverse(6, 2) == 0.375


# ---------------------------------------------------------------- point sets


def test_point_set_validates_range():
    with pytest.raises(ConfigError):
        PointSet.from_array([0.0, 0.5, 1.0])
    with pytest.raises(ConfigError):
        PointSet.from_array([-0.25])
    with pytest.raises(ConfigError):
        PointSet.from_array([0.0, float("nan")])
    with pytest.raises(ConfigError):
        PointSet(points=np.empty((0, 2)))


def test_point_set_is_immutable():
    ps = PointSet.from_array([0.0, 0.5])
    with pytest.raises(ValueError):
        ps.points[0, 0] = 0.25


@pytest.mark.parametrize("make", [PointSet, PointSet.from_array], ids=["init", "from_array"])
def test_point_set_leaves_the_callers_array_writable_and_apart(make):
    a = np.array([[0.0, 0.5], [0.25, 0.75]])
    ps = make(a)
    a[0, 1] = 0.125  # used to raise: the set froze the caller's own array
    assert ps.points[0, 1] == 0.5
    assert not ps.points.flags.writeable


def test_point_set_keeps_a_frozen_output_without_a_copy():
    ps = sobol_points(16, 2)
    assert PointSet(ps.points).points is ps.points


def test_point_set_shape_accessors():
    ps = PointSet.from_array([[0.0, 0.5], [0.25, 0.75]])
    assert ps.n == 2
    assert ps.dim == 2


def test_as_integers_round_trip():
    ps = sobol_points(64, 3)
    ints = ps.as_integers()
    assert ints.dtype == np.uint64
    back = ints * 2.0 ** -DEFAULT_BIT_DEPTH
    assert np.array_equal(back, ps.points)


def test_as_integers_rejects_non_dyadic():
    ps = PointSet.from_array([1.0 / 3.0])
    with pytest.raises(PrecisionError):
        ps.as_integers()


def test_as_integers_respects_requested_depth():
    # the grid has 2^52 cells: 1/4 is the integer 2^50
    ps = PointSet.from_array([0.0, 0.5, 0.25, 0.75])
    quarter = 1 << (DEFAULT_BIT_DEPTH - 2)
    assert np.array_equal(ps.as_integers().ravel(), [0, 2 * quarter, quarter, 3 * quarter])


# ---------------------------------------------------------------- generators


def _reference_sobol(n, dim):
    """Column-at-a-time doubling, X[h:h+m] = X[:m] ^ V_k: the whole-array
    reference the tiled generator must equal bit for bit."""
    v = _directions(dim)
    pts = np.empty((n, dim))
    x = np.zeros(n, dtype=np.uint64)
    for j in range(dim):
        for k in range((n - 1).bit_length()):
            h = 1 << k
            m = min(h, n - h)
            np.bitwise_xor(x[:m], v[j, k], out=x[h : h + m])
        np.multiply(x, 2.0**-DEFAULT_BIT_DEPTH, out=pts[:, j])
    return pts


# one-point and sub-tile sets, the 4096-column Sobol' lead segments of d = 15
# cut on both sides of a boundary, ragged last tiles, one-column and
# 64-column sets
@pytest.mark.parametrize(
    "n, d",
    [(1, 1), (2, 1), (3, 15), (4095, 15), (4096, 15), (4097, 15), (13114, 15), (70000, 1), (2051, 64), (1 << 17, 2)],
)
def test_sobol_matches_the_column_doubling_reference(n, d):
    assert np.array_equal(sobol_points(n, d).points, _reference_sobol(n, d))


def test_sobol_first_point_is_origin():
    ps = sobol_points(1, 3)
    assert np.array_equal(ps.points, np.zeros((1, 3)))


def test_sobol_dimension_one_is_van_der_corput():
    ps = sobol_points(4, 1)
    assert sorted(ps.points[:, 0]) == [0.0, 0.25, 0.5, 0.75]
    vdc = van_der_corput_points(64)
    want = np.array([radical_inverse(i, 2) for i in range(64)])
    assert np.array_equal(vdc.points[:, 0], want)
    assert np.array_equal(sobol_points(64, 1).points, vdc.points)


def test_sobol_first_points_d2():
    # classic first block of the two-dimensional sequence
    want = np.array(
        [
            [0.0, 0.0],
            [0.5, 0.5],
            [0.25, 0.75],
            [0.75, 0.25],
            [0.125, 0.625],
            [0.625, 0.125],
            [0.375, 0.375],
            [0.875, 0.875],
        ]
    )
    got = sobol_points(8, 2).points
    assert np.array_equal(got, want)


def test_sobol_matches_reference_generator():
    # independent generator emits the same 2^m blocks in Gray-code order:
    # its point i is the natural-order point i ^ (i >> 1)
    # (d = 64 covers the whole bundled direction-number table)
    qmc = pytest.importorskip("scipy.stats.qmc")
    n = 256
    idx = np.arange(n)
    for d in (8, 64):
        ref = qmc.Sobol(d=d, scramble=False, bits=52).random(n)
        mine = sobol_points(n, d).points
        assert np.array_equal(ref, mine[idx ^ (idx >> 1)]), f"d={d}"


def test_sobol_start_index_slices_the_sequence():
    # the sequence always starts at index 0; a shorter run is a prefix
    full = sobol_points(80, 3).points
    head = sobol_points(64, 3).points
    assert np.array_equal(head, full[:64])


def test_sobol_index_addressing_is_stable():
    a = sobol_points(32, 5).points
    b = sobol_points(32, 5).points
    assert np.array_equal(a, b)


def test_sobol_validates_arguments(no_draws):
    # a fraction used to fail in the walk with a bare TypeError
    for dim in (2.5, "2", None):
        with pytest.raises(ConfigError, match="^dim: must lie in 1..64, the direction-number table's range$"):
            sobol_points(4, dim)
    for n in (4.5, "4", None):
        with pytest.raises(ConfigError, match="^count: must lie in 1..2\\^52, the generator's range$"):
            sobol_points(n, 2)
    with pytest.raises(ConfigError):
        sobol_points(0, 2)
    with pytest.raises(ConfigError):
        sobol_points(4, 0)
    with pytest.raises(ConfigError):
        sobol_points(4, 65)  # bundled table covers 64 dimensions
    with pytest.raises(ConfigError):
        sobol_points(2**52 + 1, 1)  # runs past the dyadic grid; rejected before allocating


def test_sobol_coordinates_are_dyadic_and_in_range():
    pts = sobol_points(512, 16).points
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    scaled = pts * 2.0**DEFAULT_BIT_DEPTH
    assert np.array_equal(scaled, np.floor(scaled))


# ---------------------------------------------------------------- direction numbers


def test_direction_table_covers_64_dimensions():
    assert sobol_points(2, 64).dim == 64
    with pytest.raises(ConfigError, match="64"):
        sobol_points(4, 65)


# ---------------------------------------------------------------- net verification


def test_is_net_accepts_van_der_corput_block():
    ps = PointSet.from_array([0.0, 0.5, 0.25, 0.75])
    assert is_net(ps, NetParams(t=0, m=2, d=1)).ok


def test_is_net_rejects_clustered_points_with_witness():
    ps = PointSet.from_array([0.0, 0.1, 0.2, 0.3])
    res = is_net(ps, NetParams(t=0, m=2, d=1))
    assert not res.ok
    w = res.witness
    assert w is not None
    assert w.lower == (0.0,) and w.upper == (0.25,)
    assert w.count == 3 and w.expected == 1


def test_is_net_sobol_d2():
    for m in (4, 10):
        ps = sobol_points(2**m, 2)
        assert is_net(ps, NetParams(t=0, m=m, d=2)).ok


def test_is_net_validates_shape():
    ps = sobol_points(16, 2)
    with pytest.raises(ConfigError):
        is_net(ps, NetParams(t=0, m=3, d=2))  # 16 != 2^3
    with pytest.raises(ConfigError):
        is_net(ps, NetParams(t=0, m=4, d=3))  # dimension mismatch
    with pytest.raises(ConfigError):
        NetParams(t=3, m=2, d=1)
    with pytest.raises(ConfigError):
        NetParams(t=0, m=2, d=0)
    with pytest.raises(ConfigError):
        NetParams(t=0, m=2, d=1, b=1)
    # a fraction used to fail inside is_net (t) or be accepted (d)
    for kwargs, name in (
        (dict(t=0.5, m=2, d=1), "t"),
        (dict(t=0, m=2.5, d=1), "m"),
        (dict(t=0, m=2, d=1.5), "d"),
        (dict(t=0, m=2, d=1, b=2.5), "b"),
        (dict(t="0", m=2, d=1), "t"),
        (dict(t=0, m=None, d=1), "m"),
    ):
        with pytest.raises(ConfigError, match=f"^{name}: must "):
            NetParams(**kwargs)
    params = NetParams(t=np.int64(0), m=2.0, d=np.float64(1), b=np.uint8(2))
    assert astuple(params) == (0, 2, 1, 2) and all(type(x) is int for x in astuple(params))


def test_is_net_enforces_work_limit():
    ps = sobol_points(2**12, 15)
    with pytest.raises(WorkLimitError):
        is_net(ps, NetParams(t=0, m=12, d=15))


def test_is_net_handles_non_dyadic_floats():
    # thirds are not dyadic; the same cell rule bins them
    ps = PointSet.from_array([0.0, 1.0 / 3.0, 0.5, 5.0 / 6.0])
    res = is_net(ps, NetParams(t=0, m=2, d=1))
    assert res.ok  # one point per quarter: [0, 1/3), [1/3, 1/2), ...
    assert bool(res) is True


def _reference_net_check(points, t, m, b):
    """(ok, witness fields) by a pure-Python count: each point goes to cell
    floor(x * b^k) per part, the shapes are walked in ``_compositions``
    order and their cells in lexicographic order."""
    d = len(points[0])
    for shape in _compositions(m - t, d):
        counts = Counter(tuple(math.floor(x * b**k) for x, k in zip(row, shape)) for row in points)
        assert all(c < b**k for cell in counts for c, k in zip(cell, shape))
        for cell in itertools.product(*(range(b**k) for k in shape)):
            if counts[cell] != b**t:
                lower = tuple(c / b**k for c, k in zip(cell, shape))
                upper = tuple((c + 1) / b**k for c, k in zip(cell, shape))
                return False, (shape, cell, lower, upper, counts[cell], b**t)
    return True, None


def _net_check_cases():
    rng = np.random.default_rng(13)
    for d in (1, 2, 3):
        for m in range(1, 7):
            sobol = sobol_points(2**m, d).points
            moved = sobol.copy()
            moved[rng.integers(2**m), rng.integers(d)] = rng.integers(2**10) / 2**10
            sets = {
                "sobol": sobol,
                "owen": owen_scramble(sobol_points(2**m, d), int(rng.integers(2**32))).points,
                "moved": moved,
                "dyadic": rng.integers(0, 2**m, size=(2**m, d)) / 2**m,
                "floats": rng.random((2**m, d)),
            }
            for name, pts in sets.items():
                yield name, pts, m, 2
        for m in (1, 2, 3):
            floats = rng.random((3**m, d))
            yield "base-3 floats", floats, m, 3
            # the largest double below 1 stays in the last cell
            floats = floats.copy()
            floats[rng.integers(3**m, size=3)] = np.nextafter(1.0, 0.0)
            yield "base-3 floats at the top", floats, m, 3


def test_is_net_matches_a_brute_force_count():
    verdicts = Counter()
    for name, pts, m, b in _net_check_cases():
        ps = PointSet.from_array(pts)
        for t in range(m + 1):
            res = is_net(ps, NetParams(t=t, m=m, d=ps.dim, b=b))
            ok, want = _reference_net_check(pts.tolist(), t, m, b)
            label = f"{name} d={ps.dim} m={m} t={t}"
            assert res.ok == ok, label
            if not ok:
                w = res.witness
                assert (w.shape, w.cell, w.lower, w.upper, w.count, w.expected) == want, label
            verdicts[ok] += 1
    # both verdicts occur, so the witnesses were compared too
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_find_t_rejects_a_fractional_m_before_any_check(monkeypatch):
    # find_t(ps, 2.5, 1) used to fail in range() with a bare TypeError
    def checked(*args):
        raise AssertionError("is_net ran")

    monkeypatch.setattr(lowdisc, "is_net", checked)
    for m in (2.5, "2", None, -1):
        with pytest.raises(ConfigError, match="^m: must be an integer >= 0$"):
            find_t(van_der_corput_points(4), m, 1)


def test_find_t_known_values():
    assert find_t(sobol_points(64, 2), m=6, d=2) == 0
    assert find_t(sobol_points(64, 2), m=6.0, d=np.int64(2)) == 0
    assert find_t(sobol_points(64, 3), m=6, d=3) == 1
    assert find_t(van_der_corput_points(64), m=6, d=1) == 0


# ---------------------------------------------------------------- star discrepancy


def test_star_discrepancy_examples():
    assert star_discrepancy_1d(PointSet.from_array([0.0, 0.25, 0.5, 0.75])) == 0.25
    assert star_discrepancy_1d(PointSet.from_array([0.5])) == 0.5
    assert star_discrepancy_1d(PointSet.from_array([0.0])) == 1.0


def test_star_discrepancy_rejects_higher_dimensions():
    with pytest.raises(ConfigError):
        star_discrepancy_1d(sobol_points(16, 2))


def test_star_discrepancy_of_van_der_corput_blocks():
    # the first 2^m points form the full dyadic grid {k/N}, whose star
    # discrepancy is exactly 1/N
    for m in range(1, 11):
        n = 2**m
        d = star_discrepancy_1d(van_der_corput_points(n))
        assert d == 1.0 / n


def test_star_discrepancy_dominates_uniform_noise():
    rng = np.random.default_rng(3)
    pts = PointSet.from_array(rng.uniform(size=256))
    d_rand = star_discrepancy_1d(pts)
    d_vdc = star_discrepancy_1d(van_der_corput_points(256))
    assert d_vdc < d_rand <= 1.0


def test_van_der_corput_gap_structure():
    # each block of 2^m consecutive points is a permutation of {k / 2^m}
    pts = np.sort(van_der_corput_points(256).points[:, 0])
    gaps = np.diff(pts)
    assert np.all(gaps == 1.0 / 256)


def test_an_interrupted_caller_stops_every_worker(monkeypatch):
    # SIGINT reaches the main thread while it waits for two workers of 100
    # tiles each: the workers stop before their next tile instead of
    # running every tile first, which took a 10^8-row truth pass 5-6 s.
    # The signal comes at worker 1's third tile, 20 ms in, when the main
    # thread has long submitted both workers and waits
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lowdisc, "_TILES_PER_WORKER", 1)
    ran = []

    def worker():
        def tile(start, m):
            if start == 5:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.01)
            ran.append(start)

        return tile

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        lowdisc.run_tiles(200, 1, worker)
    assert threading.active_count() == before
    assert len(ran) < 20
