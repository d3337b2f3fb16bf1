"""Empirical-CDF risk estimators.

Given a batch of model outputs X_1..X_N and a risk level p in (0,1):

* quantile (value-at-risk): the ceil(pN)-th order statistic, which equals
  inf{x : F_N(x) >= p} for the empirical CDF F_N;
* expected shortfall (CVaR): v - (1/(pN)) * sum_i (v - X_i)^+ with v the
  quantile estimate;
* K_N(x) = (1/N) * sum_i (x - X_i)^+, the sample lower partial moment the
  shortfall estimator is built from.

All functions are pure.  A batch's values are immutable after
construction; the batch remembers each order statistic it has selected,
so a quantile and a shortfall estimate at one level share one selection.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .bits import check_int
from .errors import ConfigError


class SampleBatch:
    """An ordered batch of N real-valued model outputs.

    ``values`` keeps the generator's output order (replications may rely on
    it) and is read-only.
    """

    __slots__ = ("values", "_selected")

    def __init__(self, values: Union[Sequence[float], np.ndarray]) -> None:
        arr = check_finite(np.array(values, dtype=np.float64, copy=True).ravel())
        arr.setflags(write=False)
        self.values = arr
        self._selected: Dict[int, float] = {}  # k -> the k-th order statistic

    @property
    def n(self) -> int:
        return self.values.size


def check_finite(values: np.ndarray) -> np.ndarray:
    """values; ConfigError unless they are at least one and all finite."""
    if values.size < 1:
        raise ConfigError("batch must hold at least one value")
    if not np.all(np.isfinite(values)):
        raise ConfigError("batch values must all be finite")
    return values


def check_level(p: float) -> float:
    """The risk level p as a float; ConfigError unless it is a real number in (0, 1)."""
    if isinstance(p, numbers.Real) and 0.0 < p < 1.0:
        return float(p)
    raise ConfigError(f"p: risk level must lie in (0, 1), got {p!r}")


def order_index(p: float, n: int) -> int:
    """1-based order-statistic index k = ceil(pN), with a snap rule.

    When the product pN lands within one double-precision step of an
    integer, that integer is used; a naive ceiling would be off by one
    whenever rounding pushes an exact product just above an integer
    (e.g. p = 0.1, N = 10^7).
    """
    p, n = check_level(p), check_int(n, "n", 1)
    pn = p * n
    q = round(pn)
    if abs(pn - q) <= np.spacing(pn):
        k = int(q)
    else:
        k = math.ceil(pn)
    return min(max(k, 1), n)


def empirical_cdf(batch: SampleBatch, x: float) -> float:
    """Fraction of batch values <= x (inclusive)."""
    return int(np.count_nonzero(batch.values <= x)) / batch.n


def _order_statistic(values: np.ndarray, k: int) -> float:
    # expected-linear-time selection, on a copy
    return float(np.partition(values, k - 1)[k - 1])


def _excess_sum(x: float, values: np.ndarray) -> float:
    """sum_i (x - X_i)^+, pairwise over the values in their given order,
    with one scratch array."""
    d = np.subtract(x, values)
    np.maximum(d, 0.0, out=d)
    return float(np.sum(d))


def risk_estimates(values: np.ndarray, p: float) -> Tuple[float, float]:
    """(v, c): the ceil(pN)-th order statistic of the N finite ``values``
    and the shortfall estimate v - (1/(pN)) * sum_i (v - X_i)^+, from one
    selection; the sum runs over the values in their given order."""
    p = check_level(p)
    v = _order_statistic(values, order_index(p, values.size))
    return v, v - _excess_sum(v, values) / (p * values.size)


def quantile_estimate(batch: SampleBatch, p: float) -> float:
    """The ceil(pN)-th order statistic of the batch, selected once per
    batch and order."""
    k = order_index(p, batch.n)
    v = batch._selected.get(k)
    if v is None:
        v = batch._selected[k] = _order_statistic(batch.values, k)
    return v


def shortfall_estimate(batch: SampleBatch, p: float) -> float:
    """Expected-shortfall estimate v - (1/(pN)) * sum_i (v - X_i)^+, with v
    the batch's ``quantile_estimate``."""
    p = check_level(p)
    v = quantile_estimate(batch, p)
    return v - _excess_sum(v, batch.values) / (p * batch.n)


def k_hat(batch: SampleBatch, x: float) -> float:
    """Sample average of (x - X_i)^+."""
    return _excess_sum(x, batch.values) / batch.n
