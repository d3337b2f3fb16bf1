import math

import numpy as np
import pytest
from scipy import integrate, optimize

from qmcrisk.cli import main
from qmcrisk.errors import ConfigError
from qmcrisk.estimators import SampleBatch, empirical_cdf
from qmcrisk.lowdisc import sobol_points
from qmcrisk.models import (
    CLAMP_EPSILON,
    DEFAULT_SAN_PATHS,
    DEFAULT_SAN_RATES,
    EDGE_COUNT,
    ExpModel,
    SanModel,
    load_model,
)
from qmcrisk.randomize import owen_scramble

# ---------------------------------------------------------------- construction


def test_default_network_shape():
    san = SanModel()
    assert san.dim == EDGE_COUNT == 15
    assert san.rates == (0.5,) * 8 + (1.0,) * 7
    assert CLAMP_EPSILON == 2.0**-53


def test_network_validation():
    with pytest.raises(ConfigError):
        SanModel(rates=(1.0,) * 14)
    with pytest.raises(ConfigError):
        SanModel(rates=(1.0,) * 7 + (-1.0,) + (1.0,) * 7)
    # the paths are fixed: evaluate hard-codes the network's recursion
    with pytest.raises(TypeError):
        SanModel(paths=())
    with pytest.raises(TypeError):
        SanModel(paths=((1, 2), ()))
    with pytest.raises(TypeError):
        SanModel(paths=((1, 16),))
    # the clamp is the constant CLAMP_EPSILON
    with pytest.raises(TypeError):
        SanModel(clamp_epsilon=0.5)


def test_exp_model_validation():
    with pytest.raises(ConfigError):
        ExpModel(rate=0.0)
    with pytest.raises(ConfigError):
        ExpModel(rate=-2.0)
    with pytest.raises(TypeError):
        ExpModel(clamp_epsilon=0.0)


# ---------------------------------------------------------------- evaluation


def test_san_at_equal_edge_times():
    # u_j = e^-1 makes every edge duration 1/rate: 2 on edges 1..8, 1 on
    # 9..15; the longest of the ten paths then sums to 6
    san = SanModel()
    u = np.full((1, 15), math.exp(-1.0))
    assert san.evaluate(u)[0] == pytest.approx(6.0, abs=1e-12)
    assert san.evaluate(np.full((1, 15), math.exp(-2.0)))[0] == pytest.approx(12.0, abs=1e-12)


def test_exp_model_inversion():
    m = ExpModel(rate=1.0)
    u = np.full((1, 1), math.exp(-3.0))
    assert m.evaluate(u)[0] == pytest.approx(3.0, abs=1e-12)
    assert ExpModel(rate=3.0).evaluate(u)[0] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_equals_brute_force_path_maximum():
    rng = np.random.default_rng(11)
    san = SanModel()
    u = rng.uniform(size=(64, 15))
    got = san.evaluate(u)
    for i in range(64):
        durations = [-math.log(u[i, j]) / san.rates[j] for j in range(15)]
        want = max(sum(durations[j - 1] for j in path) for path in DEFAULT_SAN_PATHS)
        assert got[i] == pytest.approx(want, rel=1e-12)


def test_single_row_and_batch_evaluation_agree_bitwise():
    # the study's prefix reuse needs each row's loss to be the same alone
    # as in any batch
    rng = np.random.default_rng(12)
    san = SanModel()
    u = rng.uniform(size=(128, 15))
    batch = san.evaluate(u)
    for i in range(0, 128, 7):
        assert san.evaluate(u[i : i + 1]).tobytes() == batch[i : i + 1].tobytes()
    m = ExpModel()
    x = rng.uniform(size=(32, 1))
    b = m.evaluate(x)
    for i in range(32):
        assert m.evaluate(x[i : i + 1]).tobytes() == b[i : i + 1].tobytes()


def test_evaluate_is_nonincreasing_per_coordinate():
    rng = np.random.default_rng(13)
    san = SanModel()
    for _ in range(50):
        u = rng.uniform(0.05, 0.95, size=(1, 15))
        base = san.evaluate(u)[0]
        j = int(rng.integers(0, 15))
        u2 = u.copy()
        u2[0, j] = u[0, j] + rng.uniform(0.0, 1.0 - u2[0, j] - 1e-9)
        assert san.evaluate(u2)[0] <= base + 1e-12


def test_clamping_keeps_every_cube_point_finite():
    san = SanModel()
    corners = np.array([[0.0] * 15, [1.0 - 1e-17] * 15])
    losses = san.evaluate(corners)
    assert np.all(np.isfinite(losses)) and losses[1] >= 0.0
    m = ExpModel()
    origin = m.evaluate(np.zeros((1, 1)))[0]
    # the clamp caps the origin's loss at 53 bits' worth of log
    assert origin == pytest.approx(53.0 * math.log(2.0), rel=1e-12)


def test_evaluate_validates_shape():
    san = SanModel()
    with pytest.raises(ConfigError):
        san.evaluate(np.zeros((1, 14)))
    with pytest.raises(ConfigError):
        san.evaluate(np.zeros((4, 4)))
    m = ExpModel()
    with pytest.raises(ConfigError):
        m.evaluate(np.zeros((3, 2)))


def test_only_point_blocks_are_evaluated():
    # a point is a (1, d) block; a scalar, a vector or a stack of blocks is
    # no block, even where its size would fit
    for model in (SanModel(), ExpModel()):
        for shape in ((), (model.dim,), (2, 1, model.dim)):
            with pytest.raises(ConfigError, match="block"):
                model.evaluate(np.full(shape, 0.5))
        assert model.evaluate(np.full((2, model.dim), 0.5)).shape == (2,)
        assert model.evaluate(np.empty((0, model.dim))).shape == (0,)


# ---------------------------------------------------------------- closed forms


def test_true_quantile_values():
    m = ExpModel(rate=1.0)
    assert m.true_quantile(0.1) == pytest.approx(0.10536052, abs=5e-9)
    assert ExpModel(rate=2.0).true_quantile(0.1) == pytest.approx(0.05268026, abs=5e-9)
    # scale property
    assert ExpModel(rate=2.0).true_quantile(0.3) == m.true_quantile(0.3) / 2.0


def test_true_quantile_matches_cdf_inversion():
    m = ExpModel(rate=1.7)
    for p in (0.05, 0.1, 0.5, 0.9):
        v = m.true_quantile(p)
        root = optimize.brentq(lambda x: 1.0 - math.exp(-1.7 * x) - p, 0.0, 50.0, xtol=1e-14)
        assert v == pytest.approx(root, abs=1e-12)


def test_true_shortfall_values():
    m = ExpModel(rate=1.0)
    assert m.true_shortfall(0.1) == pytest.approx(0.05175536, abs=5e-9)
    # approaches the mean from below as p -> 1
    c = m.true_shortfall(0.999)
    assert 0.9 < c < 1.0


def test_true_shortfall_matches_numeric_integration():
    for rate, p in ((1.0, 0.1), (2.5, 0.3), (0.7, 0.9)):
        m = ExpModel(rate=rate)
        v = m.true_quantile(p)
        tail, _ = integrate.quad(lambda x: x * rate * math.exp(-rate * x), 0.0, v)
        assert m.true_shortfall(p) == pytest.approx(tail / p, rel=1e-10)


def test_network_has_no_closed_form():
    san = SanModel()
    assert san.true_quantile(0.1) is None
    assert san.true_shortfall(0.1) is None
    with pytest.raises(ConfigError):
        san.true_quantile(0.0)


def test_empirical_cdf_at_true_quantile():
    m = ExpModel(rate=1.0)
    p = 0.1
    pts = owen_scramble(sobol_points(1 << 16, 1), 1)
    batch = SampleBatch(m.evaluate(pts.points))
    assert abs(empirical_cdf(batch, m.true_quantile(p)) - p) < 0.01


# ---------------------------------------------------------------- config parsing


def test_load_model_network_defaults():
    m = load_model("kind = san-15\n")
    assert isinstance(m, SanModel)
    assert m.rates == DEFAULT_SAN_RATES


def test_load_model_with_section_header_and_comments():
    text = "[model]\nkind = exp  # calibration\nlambda = 2.0\n"
    m = load_model(text)
    assert isinstance(m, ExpModel)
    assert m.rate == 2.0


def test_load_model_custom_rates():
    rates = " ".join(["0.25"] * 8 + ["2.0"] * 7)
    m = load_model(f"kind = san-15\nrates = {rates}\n")
    assert m.rates == (0.25,) * 8 + (2.0,) * 7
    m2 = load_model("kind = san-15\nrates = " + ", ".join(["1"] * 15) + "\n")
    assert m2.rates == (1.0,) * 15


def test_load_model_clamp_override():
    for kind in ("exp", "san-15"):
        with pytest.raises(ConfigError, match="clamp_epsilon: unknown key"):
            load_model(f"kind = {kind}\nclamp_epsilon = 1e-12\n")


def test_load_model_errors_name_the_key():
    with pytest.raises(ConfigError, match="kind"):
        load_model("lambda = 1\n")
    with pytest.raises(ConfigError, match="kind"):
        load_model("kind = weibull\n")
    with pytest.raises(ConfigError, match="paths"):
        load_model("kind = san-15\npaths = 1 2 3\n")  # not overridable
    with pytest.raises(ConfigError, match="rates"):
        load_model("kind = san-15\nrates = 1 2\n")
    with pytest.raises(ConfigError, match="rates"):
        load_model("kind = san-15\nrates = " + " ".join(["1"] * 14 + ["-1"]) + "\n")
    with pytest.raises(ConfigError, match="lambda"):
        load_model("kind = exp\nlambda = fast\n")
    with pytest.raises(ConfigError, match="lambda"):
        load_model("kind = exp\nlambda = -3\n")


def test_load_model_rejects_malformed_documents():
    with pytest.raises(ConfigError):
        load_model("kind\n")  # no value
    with pytest.raises(ConfigError):
        load_model("[a]\nkind = exp\n[b]\nkind = exp\n")  # ambiguous sections


@pytest.mark.parametrize(
    "text",
    [
        "[foo]\nkind = exp\n",  # a lone section other than [model]
        "[experiment]\nreplications = 4\n",  # an experiment without its model
    ],
)
def test_load_model_needs_flat_keys_or_a_model_section(text, tmp_path, capsys):
    # one rule with load_experiment: a sectioned document's model is its [model]
    with pytest.raises(ConfigError, match=r"\[model\]"):
        load_model(text)
    cfg = tmp_path / "model.cfg"
    cfg.write_text(text)
    assert main(["estimate", "--config", str(cfg), "-n", "4"]) == 1
    assert "[model]" in capsys.readouterr().err


# ---------------------------------------------------------------- folded evaluation


def _per_path_reference(model, u):
    """Completion times by one gather, sum and max per listed path."""
    durations = -np.log(np.clip(u, CLAMP_EPSILON, 1.0 - CLAMP_EPSILON)) / np.asarray(model.rates)
    cols = [np.asarray(path, dtype=np.intp) - 1 for path in DEFAULT_SAN_PATHS]
    out = durations[:, cols[0]].sum(axis=1)
    for c in cols[1:]:
        np.maximum(out, durations[:, c].sum(axis=1), out=out)
    return out


@pytest.mark.parametrize("rates", [DEFAULT_SAN_RATES, tuple(np.linspace(0.3, 3.1, 15))])
def test_san_evaluate_matches_the_per_path_reference_bitwise(rates):
    rng = np.random.default_rng(21)
    top = 1.0 - 2.0**-53
    u = rng.random((1 << 16, 15))
    mask = rng.random(u.shape) < 0.02
    u[mask] = rng.choice([0.0, top], size=int(mask.sum()))
    # three rows at the corners of the cube; they also make the last
    # evaluation tile ragged
    corners = np.array([[0.0] * 15, [top] * 15, [0.0, top] * 7 + [0.0]])
    u = np.vstack([u, corners])
    model = SanModel(rates=rates)
    got = model.evaluate(u)
    want = _per_path_reference(model, u)
    assert got.dtype == np.float64 and got.shape == (u.shape[0],)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert model.evaluate(u[:0]).shape == (0,)


_KERNEL_MODELS = [
    SanModel(),
    SanModel(rates=tuple(np.random.default_rng(5).uniform(0.1, 4.0, 15))),
    ExpModel(rate=2.5),
]


@pytest.mark.parametrize("model", _KERNEL_MODELS, ids=["san-default", "san-random", "exp"])
def test_tile_kernel_in_place_equals_evaluate_bitwise(model):
    # on the walk's tiles the kernel runs in the float block the walk wrote
    # (u is y); the stream and evaluate hand it a row-major tile's
    # transpose, u = rows.T, with y a separate C-contiguous block
    rng = np.random.default_rng(22)
    u = rng.random((5000, model.dim))
    u[rng.random(u.shape) < 0.02] = 0.0
    u[:3] = 0.0
    want = model.evaluate(u)
    block = u.T.copy()  # the kernel overwrites it
    got = np.full(len(u), np.nan)
    model.tile_losses(block, got, block)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    rows = u.copy()  # C-contiguous (m, dim), overwritten too
    y = np.full((model.dim, len(u)), np.nan)
    got = np.full(len(u), np.nan)
    model.tile_losses(rows.T, got, y)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if isinstance(model, ExpModel):
        ref = -np.log(np.clip(u[:, 0], CLAMP_EPSILON, 1.0 - CLAMP_EPSILON)) / model.rate
        assert np.array_equal(want.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("model", [SanModel(), ExpModel(rate=2.5)], ids=["san", "exp"])
def test_evaluate_leaves_the_callers_block_as_it_is(model):
    # the kernel overwrites the block it is given, so evaluate hands it a
    # copy of the caller's rows; the rows cross a tile boundary
    rng = np.random.default_rng(8)
    u = rng.random((20000, model.dim))
    u[:2] = 0.0
    before = u.copy()
    model.evaluate(u)
    assert np.array_equal(u.view(np.uint64), before.view(np.uint64))
    # a PointSet's points are read-only
    points = sobol_points(20000, model.dim).points
    assert not points.flags.writeable
    frozen = points.copy()
    from_frozen = model.evaluate(points)
    assert np.array_equal(points.view(np.uint64), frozen.view(np.uint64))
    assert np.array_equal(from_frozen.view(np.uint64), model.evaluate(frozen).view(np.uint64))
