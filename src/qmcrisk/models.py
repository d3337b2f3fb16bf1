"""Loss models: deterministic maps from the unit cube to a scalar loss.

Two models are provided:

* ``SanModel``: a 15-edge stochastic activity network whose output is the
  project completion time, i.e. the maximum over ten fixed paths of the sum
  of exponential edge durations Y_j = -(1/lambda_j) * ln(u_j).  The paths
  are fixed; evaluation folds them into the network's longest-path
  recursion, bitwise equal to taking the max of the ten path sums;
* ``ExpModel``: a one-dimensional exponential loss X = -(1/lambda) * ln(u)
  with closed-form quantile and expected shortfall, used for calibration.

Coordinates are clamped to [eps, 1 - eps], eps = ``CLAMP_EPSILON``,
before the log so that every point of the unit cube, including the origin
emitted by unrandomized digital sequences, maps to a finite loss.

Each model has one loss kernel, ``tile_losses``, on the points that are
the columns of a (dim, m) block, which ``lowdisc.tiled`` runs on every
tile of its source: a copy of a caller's rows (``evaluate``), the PCG64
stream or the QMC walk.  Every source hands the kernel a block it may
overwrite, so the clamp and the log run in place, in the block's own
memory order; so the package needs only ``dim`` and ``tile_losses`` from
a model, plus the closed forms for ``truth = auto``.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError
from .estimators import check_level
from .lowdisc import tiled

# largest double below 1 is 1 - 2^-53, so the clamp window is as wide as
# float64 permits
CLAMP_EPSILON = 2.0 ** -53

EDGE_COUNT = 15

# activity-on-arc network: the ten source-to-sink paths, as 1-based edge
# index tuples
DEFAULT_SAN_PATHS: Tuple[Tuple[int, ...], ...] = (
    (1, 4, 11, 15),
    (1, 4, 12),
    (2, 5, 11, 15),
    (2, 5, 12),
    (2, 6, 13),
    (2, 7, 14),
    (3, 8, 11, 15),
    (3, 8, 12),
    (3, 9, 15),
    (3, 10, 14),
)

# mean duration 2 on edges 1..8, mean 1 on edges 9..15
DEFAULT_SAN_RATES: Tuple[float, ...] = (0.5,) * 8 + (1.0,) * 7

def _evaluate(model: Model, u: np.ndarray) -> np.ndarray:
    """The losses of the rows of u, by ``lowdisc.tiled``, each worker
    copying its slices of u into its own (rows, dim) tile for the kernel;
    ConfigError unless u is an (n, model.dim) block, n >= 0."""
    block = np.asarray(u, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] != model.dim:
        raise ConfigError(f"model expects an (n, {model.dim}) block of points, got shape {block.shape}")

    def source(rows: int) -> Callable:
        tile = np.empty((rows, model.dim))

        def read(start: int, m: int, *_) -> np.ndarray:
            # a row-major copy, which the kernel overwrites: the caller's
            # block stays as it is, and may be read-only
            np.copyto(tile[:m], block[start : start + m])
            return tile[:m].T

        return read

    return tiled(block.shape[0], model.dim, source, model.tile_losses)


def _longest_path(y: np.ndarray, out: np.ndarray) -> None:
    """Write the longest of the ten path sums of the durations ``y`` (15, m)
    to ``out``; rows 1, 4, 5 and 8 of y, read first, then serve as scratch.

    The paths are folded into the network's recursion: a = max(Y1+Y4,
    Y2+Y5, Y3+Y8), then the max of (a+Y11)+Y15, a+Y12, (Y2+Y6)+Y13,
    (Y2+Y7)+Y14, (Y3+Y9)+Y15 and (Y3+Y10)+Y14.  Rounded addition is
    monotone, so fl(max(x, y) + z) == max(fl(x + z), fl(y + z)); each path
    is still summed left to right, so ``out`` is bitwise the max of the ten
    path sums of ``DEFAULT_SAN_PATHS``.
    """
    y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15 = y
    a, t = y1, y4
    np.add(y1, y4, out=a)
    np.add(y2, y5, out=y5)
    np.maximum(a, y5, out=a)
    np.add(y3, y8, out=y8)
    np.maximum(a, y8, out=a)
    np.add(a, y11, out=out)
    out += y15
    a += y12
    np.maximum(out, a, out=out)
    for first, second, last in ((y2, y6, y13), (y2, y7, y14), (y3, y9, y15), (y3, y10, y14)):
        np.add(first, second, out=t)
        t += last
        np.maximum(out, t, out=out)


@dataclass(frozen=True)
class SanModel:
    """Fixed-topology stochastic activity network with exponential edges."""

    rates: Tuple[float, ...] = DEFAULT_SAN_RATES

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        if len(rates) != EDGE_COUNT:
            raise ConfigError(f"rates: expected {EDGE_COUNT} values, got {len(rates)}")
        if any(not r > 0.0 for r in rates):
            raise ConfigError("rates: every edge rate must be positive")
        object.__setattr__(self, "rates", rates)

    @property
    def dim(self) -> int:
        return EDGE_COUNT

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Completion times of the rows of an (n, 15) block: max over paths
        of summed edge durations."""
        return _evaluate(self, u)

    def tile_losses(self, u: np.ndarray, out: np.ndarray, y: np.ndarray) -> None:
        """Write the completion times of the m points that are the columns
        of the (15, m) block ``u``, which it overwrites, to ``out``; ``y``
        is C-contiguous (15, m) float64 scratch and may be ``u`` itself.

        The clamp and the log run in place in u, in u's own memory order,
        so the rows of a row-major tile are read contiguously; the division
        by the negated rates (x / (-r) is bitwise -(x / r)) writes y, and
        the ten paths are folded into the network's recursion
        (``_longest_path``).
        """
        np.clip(u, CLAMP_EPSILON, 1.0 - CLAMP_EPSILON, out=u)
        np.log(u, out=u)
        np.divide(u, -np.asarray(self.rates)[:, np.newaxis], out=y)
        _longest_path(y, out)

    def true_quantile(self, p: float) -> Optional[float]:
        """No closed form for the completion-time distribution."""
        check_level(p)
        return None

    def true_shortfall(self, p: float) -> Optional[float]:
        check_level(p)
        return None


@dataclass(frozen=True)
class ExpModel:
    """One-dimensional exponential loss X = -(1/rate) * ln(u)."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        rate = float(self.rate)
        if not rate > 0.0:
            raise ConfigError(f"lambda: rate must be positive, got {rate}")
        object.__setattr__(self, "rate", rate)

    @property
    def dim(self) -> int:
        return 1

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Losses of the rows of an (n, 1) block."""
        return _evaluate(self, u)

    def tile_losses(self, u: np.ndarray, out: np.ndarray, y: np.ndarray) -> None:
        """Write the losses of the m points in the (1, m) block ``u``, which
        it overwrites, to ``out``; ``y`` is unused.  x / (-r) is bitwise
        -(x / r)."""
        np.clip(u[0], CLAMP_EPSILON, 1.0 - CLAMP_EPSILON, out=u[0])
        np.log(u[0], out=u[0])
        np.divide(u[0], -self.rate, out=out)

    def true_quantile(self, p: float) -> float:
        """v solving P(X <= v) = p; here X is Exp(rate) in distribution."""
        p = check_level(p)
        return -math.log1p(-p) / self.rate

    def true_shortfall(self, p: float) -> float:
        """E[X | X <= v] = v - (1/p) * E[(v - X)^+] = v*(1 - 1/p) + 1/rate."""
        p = check_level(p)
        v = self.true_quantile(p)
        return v * (1.0 - 1.0 / p) + 1.0 / self.rate


Model = Union[SanModel, ExpModel]


_MODEL_KEYS = {
    "san-15": {"kind", "rates"},
    "exp": {"kind", "lambda"},
}


def parse_key(section: "configparser.SectionProxy", key: str, parse: Callable = float, expected: str = "a number"):
    """``parse`` of the key's raw text; ConfigError naming the key if it raises ValueError."""
    raw = section[key]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None


def parse_sections(text: str) -> configparser.ConfigParser:
    """Parse key = value config text; headerless input goes to [model]."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), comment_prefixes=("#",)
    )
    if not re.search(r"^\s*\[", text, flags=re.MULTILINE):
        text = "[model]\n" + text
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return parser


def model_from_section(section: "configparser.SectionProxy") -> Model:
    """Build a validated model from one parsed config section."""
    if "kind" not in section:
        raise ConfigError("kind: missing required key")
    kind = section["kind"].strip().lower()
    if kind not in _MODEL_KEYS:
        expected = ", ".join(sorted(_MODEL_KEYS))
        raise ConfigError(f"kind: unknown model kind {kind!r} (expected one of: {expected})")
    for key in section:
        if key not in _MODEL_KEYS[kind]:
            raise ConfigError(f"{key}: unknown key for model kind {kind!r}")

    if kind == "exp":
        rate = parse_key(section, "lambda") if "lambda" in section else 1.0
        return ExpModel(rate=rate)

    rates: Tuple[float, ...] = DEFAULT_SAN_RATES
    if "rates" in section:
        tokens = [t for t in re.split(r"[,\s]+", section["rates"].strip()) if t]
        try:
            rates = tuple(float(t) for t in tokens)
        except ValueError:
            raise ConfigError("rates: expected a list of numbers") from None
    return SanModel(rates=rates)


def load_model(text: str) -> Model:
    """Parse a model config document: flat keys or a [model] section."""
    parser = parse_sections(text)
    if not parser.has_section("model"):
        raise ConfigError("model: config must contain a [model] section")
    return model_from_section(parser["model"])
