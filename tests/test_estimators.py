import math

import numpy as np
import pytest

from qmcrisk.errors import ConfigError
from qmcrisk.estimators import (
    SampleBatch,
    check_finite,
    check_level,
    empirical_cdf,
    k_hat,
    order_index,
    quantile_estimate,
    risk_estimates,
    shortfall_estimate,
)

# ---------------------------------------------------------------- batches


def test_batch_validates_input():
    with pytest.raises(ConfigError):
        SampleBatch([])
    with pytest.raises(ConfigError):
        SampleBatch([1.0, math.nan])
    with pytest.raises(ConfigError):
        SampleBatch([1.0, math.inf])


def test_batch_is_immutable_and_copies_input():
    src = np.array([3.0, 1.0, 2.0])
    b = SampleBatch(src)
    src[0] = 99.0
    assert b.values[0] == 3.0
    with pytest.raises(ValueError):
        b.values[0] = 0.0


def test_batch_flattens_and_counts():
    b = SampleBatch(np.arange(6.0).reshape(2, 3))
    assert b.n == 6


# ---------------------------------------------------------------- order index


def test_order_index_basics():
    assert order_index(0.5, 4) == 2
    assert order_index(0.6, 4) == 3  # ceil(2.4)
    assert order_index(0.2, 10) == 2
    assert order_index(0.999, 4) == 4
    assert order_index(1e-9, 4) == 1  # clamped to the first order statistic


def test_order_index_snaps_near_integer_products():
    # 0.1 * 10^7 rounds to 1000000.0000000001 in floats; a naive ceiling
    # would skip to the next order statistic
    assert order_index(0.1, 10**7) == 10**6
    assert order_index(0.1, 10**8) == 10**7
    for m in range(3, 20):
        assert order_index(0.1, 10 * 2**m) == 2**m


def test_order_index_rejects_bad_level():
    with pytest.raises(ConfigError):
        order_index(0.0, 4)
    with pytest.raises(ConfigError):
        order_index(1.0, 4)
    # a level that is no number used to fail in float() with a bare error
    for p in (None, "x", "0.5", [0.1, 0.2]):
        with pytest.raises(ConfigError, match=r"^p: risk level must lie in \(0, 1\)"):
            order_index(p, 4)
        with pytest.raises(ConfigError, match=r"^p: risk level must lie in \(0, 1\)"):
            check_level(p)


def test_order_index_rejects_bad_counts():
    # order_index(0.1, 2.5) used to give 1
    for n in (2.5, "4", None, 0):
        with pytest.raises(ConfigError, match="^n: must be an integer >= 1$"):
            order_index(0.1, n)
    assert order_index(0.5, 4.0) == order_index(0.5, np.int64(4)) == 2


# ---------------------------------------------------------------- empirical CDF


def test_empirical_cdf_examples():
    b = SampleBatch([1.0, 2.0, 3.0, 4.0])
    assert empirical_cdf(b, 2.5) == 0.5
    assert empirical_cdf(b, 4.0) == 1.0
    assert empirical_cdf(b, 0.0) == 0.0
    ties = SampleBatch([0.1, 0.1, 0.9])
    assert empirical_cdf(ties, 0.1) == 2 / 3  # comparison is inclusive


def test_empirical_cdf_is_a_step_function():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=50)
    b = SampleBatch(vals)
    xs = np.sort(np.concatenate([vals, vals - 1e-9, vals + 1e-9, [-10.0, 10.0]]))
    fs = [empirical_cdf(b, float(x)) for x in xs]
    assert fs[0] == 0.0 and fs[-1] == 1.0
    assert all(f2 >= f1 for f1, f2 in zip(fs, fs[1:]))
    assert all(round(f * 50) == pytest.approx(f * 50) for f in fs)  # multiples of 1/N


# ---------------------------------------------------------------- quantile


def test_quantile_examples():
    assert quantile_estimate(SampleBatch([0.1, 0.2, 0.3, 0.4]), 0.5) == 0.2
    assert quantile_estimate(SampleBatch([7.0]), 0.3) == 7.0
    assert quantile_estimate(SampleBatch([0.4, 0.1, 0.3, 0.2]), 0.6) == 0.3


def test_quantile_is_a_sample_value_and_meets_level():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 100))
        vals = rng.normal(size=n)
        if rng.random() < 0.3:
            vals = np.round(vals, 1)  # force ties
        p = float(rng.uniform(0.01, 0.99))
        b = SampleBatch(vals)
        v = quantile_estimate(b, p)
        assert np.any(vals == v)
        assert empirical_cdf(b, v) >= p
        smaller = vals[vals < v]
        if smaller.size:
            assert empirical_cdf(b, float(smaller.max())) < p


# ---------------------------------------------------------------- shortfall


def test_shortfall_examples():
    got = shortfall_estimate(SampleBatch([0.1, 0.2, 0.3, 0.4]), 0.5)
    assert got == pytest.approx(0.15, abs=1e-15)
    # v = 2, sum of positive parts = 1, 2 - 1/(0.2*10) = 1.5 exactly
    assert shortfall_estimate(SampleBatch(np.arange(1.0, 11.0)), 0.2) == 1.5
    const = SampleBatch([3.25] * 9)
    assert shortfall_estimate(const, 0.4) == 3.25


def test_shortfall_never_exceeds_quantile():
    rng = np.random.default_rng(6)
    for _ in range(500):
        vals = rng.exponential(size=int(rng.integers(1, 80)))
        p = float(rng.uniform(0.01, 0.99))
        b = SampleBatch(vals)
        assert shortfall_estimate(b, p) <= quantile_estimate(b, p)


def test_estimates_are_affine_equivariant():
    # selecting an order statistic commutes with affine maps exactly;
    # the shortfall sum reassociates, so it gets a tolerance
    rng = np.random.default_rng(7)
    for _ in range(500):
        vals = rng.normal(scale=rng.uniform(0.1, 10), size=int(rng.integers(1, 100)))
        p = float(rng.uniform(0.01, 0.99))
        a = float(rng.normal(scale=5))
        s = float(rng.uniform(0.1, 10))
        q = quantile_estimate(SampleBatch(vals), p)
        c = shortfall_estimate(SampleBatch(vals), p)
        assert quantile_estimate(SampleBatch(vals + a), p) == q + a
        assert quantile_estimate(SampleBatch(vals * s), p) == q * s
        ct = shortfall_estimate(SampleBatch(vals + a), p)
        cs = shortfall_estimate(SampleBatch(vals * s), p)
        assert abs(ct - (c + a)) <= 1e-11 * (1.0 + abs(c + a))
        assert abs(cs - c * s) <= 1e-11 * (1.0 + abs(c * s))


def test_shortfall_rejects_bad_level():
    b = SampleBatch([1.0, 2.0])
    with pytest.raises(ConfigError):
        shortfall_estimate(b, 0.0)
    with pytest.raises(ConfigError):
        shortfall_estimate(b, 1.5)
    # "0.5" used to run as 0.5; bools are ints, and no level
    for p in (None, "x", "0.5", True):
        with pytest.raises(ConfigError, match=r"^p: risk level must lie in \(0, 1\)"):
            quantile_estimate(b, p)
        with pytest.raises(ConfigError, match=r"^p: risk level must lie in \(0, 1\)"):
            shortfall_estimate(b, p)


def test_risk_estimates_are_the_two_estimates_from_one_selection():
    rng = np.random.default_rng(5)
    values = rng.normal(size=1001)
    before = values.copy()
    for p in (0.01, 0.1, 0.5, np.float32(0.25)):
        for n in (1, 10, 1001):
            batch = SampleBatch(values[:n])
            v, c = risk_estimates(values[:n], p)
            assert (v, c) == (quantile_estimate(batch, p), shortfall_estimate(batch, p))
            assert type(v) is float and type(c) is float
    # a view in, the values untouched: the selection works on a copy
    assert values.tobytes() == before.tobytes()
    with pytest.raises(ConfigError, match="^p: "):
        risk_estimates(values, "0.5")


def test_check_finite_rejects_empty_and_non_finite_values():
    assert check_finite(np.array([1.0, 2.0])).tolist() == [1.0, 2.0]
    for values, message in (([], "at least one"), ([1.0, np.nan], "finite"), ([np.inf], "finite")):
        with pytest.raises(ConfigError, match=message):
            check_finite(np.array(values))


# ---------------------------------------------------------------- lower partial moment


def test_k_hat_examples():
    b = SampleBatch([0.0, 1.0])
    assert k_hat(b, -1.0) == 0.0
    assert k_hat(b, 0.0) == 0.0
    assert k_hat(b, 0.5) == 0.25
    assert k_hat(SampleBatch([1.0, 2.0, 3.0]), 2.0) == 1.0 / 3.0


def test_k_hat_is_convex_nondecreasing_piecewise_linear():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=40)
    b = SampleBatch(vals)
    xs = np.linspace(vals.min() - 1, vals.max() + 1, 200)
    ks = np.array([k_hat(b, float(x)) for x in xs])
    assert np.all(np.diff(ks) >= -1e-15)
    slopes = np.diff(ks) / np.diff(xs)
    assert np.all(np.diff(slopes) >= -1e-9)
    # slope reaches 1 once x clears every sample
    assert slopes[-1] == pytest.approx(1.0, abs=1e-9)


def test_k_hat_matches_direct_summation():
    rng = np.random.default_rng(9)
    for _ in range(200):
        vals = rng.normal(size=int(rng.integers(1, 60)))
        x = float(rng.normal())
        want = math.fsum(max(x - v, 0.0) for v in vals) / len(vals)
        assert k_hat(SampleBatch(vals), x) == pytest.approx(want, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------- oracle agreement


def _oracle_quantile(values: np.ndarray, p: float) -> float:
    # inf-definition: the smallest sample value whose empirical CDF
    # reaches p, scanned in ascending order
    n = values.size
    for x in np.sort(values):
        if np.count_nonzero(values <= x) / n >= p:
            return float(x)
    return float(values.max())


def _oracle_shortfall(values: np.ndarray, p: float) -> float:
    n = values.size
    v = _oracle_quantile(values, p)
    terms = np.array([v - y if y < v else 0.0 for y in values.tolist()])
    return v - float(np.sum(terms)) / (p * n)


def test_estimators_match_brute_force_oracle_bitwise():
    rng = np.random.default_rng(10)
    for case in range(300):
        n = int(rng.integers(1, 65))
        if case % 3 == 0:
            vals = np.round(rng.normal(size=n), 1)
        else:
            vals = rng.normal(size=n)
        p = float(rng.uniform(0.01, 0.99))
        b = SampleBatch(vals)
        assert quantile_estimate(b, p) == _oracle_quantile(vals, p)
        assert shortfall_estimate(b, p) == _oracle_shortfall(vals, p)
