import math
import threading
import tracemalloc

import numpy as np
import pytest

from qmcrisk.bits import child_seed
from qmcrisk.errors import ConfigError, PrecisionError, WorkLimitError
from qmcrisk.estimators import SampleBatch, order_index, quantile_estimate, shortfall_estimate
from qmcrisk.experiments import (
    CSV_HEADER,
    DEFAULT_GRID,
    SAMPLERS,
    ExperimentConfig,
    RateFit,
    ResultRow,
    ResultTable,
    TruthResult,
    TruthSpec,
    fit_rate,
    load_experiment,
    mc_stream_seed,
    mc_truth,
    rate_summary,
    resolve_truth,
    run_convergence,
    sample_losses,
    sample_points,
)
from qmcrisk.lowdisc import PointSet, sobol_points
from qmcrisk.models import ExpModel, SanModel
from qmcrisk.randomize import digital_shift, owen_scramble

import qmcrisk.experiments as experiments
import qmcrisk.lowdisc as lowdisc
import qmcrisk.models as models
import qmcrisk.randomize as randomize


class _ConstModel:
    """Stub loss: every cube point maps to the same value."""

    def __init__(self, value: float = 7.0) -> None:
        self.value = value

    @property
    def dim(self) -> int:
        return 2

    def evaluate(self, u):
        arr = np.asarray(u, dtype=np.float64)
        if arr.ndim == 2:
            return np.full(arr.shape[0], self.value)
        return self.value

    def tile_losses(self, u, out, y):
        out[:] = self.value


# ---------------------------------------------------------------- config validation


def test_experiment_config_defaults():
    cfg = ExperimentConfig(model=ExpModel())
    assert cfg.p == 0.1
    assert cfg.samplers == ("mc", "qmc-sobol", "rqmc-owen", "rqmc-shift")
    assert cfg.n_grid == DEFAULT_GRID == tuple(2**i for i in range(8, 17))
    assert cfg.replications == 100


def test_experiment_config_validation():
    m = ExpModel()
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, p=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, samplers=())
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, samplers=("mc", "mc"))
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, samplers=("latin",))
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, n_grid=(256, 300))
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, n_grid=(512, 256))
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, n_grid=())
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig(model=m, n_grid=(256, 2**53))
    with pytest.raises(ConfigError):
        ExperimentConfig(model=m, replications=0)
    # a fractional count would run its floor
    with pytest.raises(ConfigError, match="replications"):
        ExperimentConfig(model=m, replications=2.7)
    # a fractional seed would run its floor's study
    for seed in (2**64, -1, 1.5):
        with pytest.raises(ConfigError, match="master_seed"):
            ExperimentConfig(model=m, master_seed=seed)
    assert ExperimentConfig(model=m, master_seed=2**64 - 1).master_seed == 2**64 - 1
    # a fractional size would run its floor, a string its parse
    for grid in ((16.5, 32), ("16", 32), (None, 32), (16, float("inf"))):
        with pytest.raises(ConfigError, match="^n_grid: must lie in 1..2\\^52"):
            ExperimentConfig(model=m, n_grid=grid)
    for replications in ("8", None):
        with pytest.raises(ConfigError, match="^replications: "):
            ExperimentConfig(model=m, replications=replications)
    # a level that is no number fails as a bad level, not in float()
    # a numeric string used to run as its number
    for p in (None, "x", [0.1, 0.2], "0.5", False):
        with pytest.raises(ConfigError, match=r"^p: risk level must lie in \(0, 1\)"):
            ExperimentConfig(model=m, p=p)
    # integer-valued floats and numpy integers run as their ints
    cfg = ExperimentConfig(model=m, n_grid=(16.0, np.int64(32)), replications=np.float64(4), master_seed=np.uint64(7))
    assert (cfg.n_grid, cfg.replications, cfg.master_seed) == ((16, 32), 4, 7)
    assert all(type(x) is int for x in (*cfg.n_grid, cfg.replications, cfg.master_seed))


def test_truth_spec_validation():
    with pytest.raises(ConfigError):
        TruthSpec(kind="guess")
    with pytest.raises(ConfigError):
        TruthSpec(kind="explicit", v=1.0)  # missing c
    TruthSpec(kind="explicit", v=1.0, c=0.5)


# ---------------------------------------------------------------- samplers


def test_mc_points_are_reproducible_and_keyed():
    a = sample_points("mc", 256, 2, seed=5, replication=3)
    b = sample_points("mc", 256, 2, seed=5, replication=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_points("mc", 256, 2, seed=5, replication=4))
    assert not np.array_equal(a, sample_points("mc", 256, 2, seed=6, replication=3))
    # streams are not keyed by N: a shorter run is a prefix of a longer one
    assert np.array_equal(a, sample_points("mc", 512, 2, seed=5, replication=3)[:256])
    assert a.shape == (256, 2)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_mc_stream_seed_entropy():
    ss = mc_stream_seed(9, 7)
    assert list(ss.entropy) == [9, 0x6D63, 7]


def test_mc_stream_canary():
    # numpy's PCG64 stream itself: if an upgrade changes it, this fails by
    # name before every mc and truth golden hash does
    want = [0.9855593636558915, 0.7260565280290027, 0.06040863216301162, 0.5877692063228765]
    gen = np.random.Generator(np.random.PCG64(mc_stream_seed(0, 0)))
    assert gen.random(4).tolist() == want
    assert sample_points("mc", 1024, 1)[:4, 0].tolist() == want


def test_qmc_sampler_is_the_plain_sequence():
    got = sample_points("qmc-sobol", 64, 3)
    assert np.array_equal(got, sobol_points(64, 3).points)


def test_rqmc_samplers_match_library_composition():
    for name, scheme in (("rqmc-owen", owen_scramble), ("rqmc-shift", digital_shift)):
        got = sample_points(name, 128, 2, seed=17, replication=4)
        want = scheme(sobol_points(128, 2), child_seed(17, 4)).points
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_prefix_that_cuts_a_tile_equals_a_fresh_draw(sampler):
    # the prefix ends 904 rows into the second tile at d = 15, of the walk
    # and of the mc draw alike
    rows = lowdisc._tile_rows(15)
    assert 904 < rows
    full = sample_points(sampler, 2 * rows, 15, seed=3, replication=2)
    assert np.array_equal(full[: rows + 904], sample_points(sampler, rows + 904, 15, seed=3, replication=2))
    losses = sample_losses(SanModel(), sampler, 2 * rows, 3, 2)
    assert losses[: rows + 904].tobytes() == sample_losses(SanModel(), sampler, rows + 904, 3, 2).tobytes()


def test_sample_points_validation(no_draws):
    with pytest.raises(ConfigError):
        sample_points("mc", 0, 2)
    with pytest.raises(ConfigError, match=r"^sampler: unknown sampler 'halton' \(expected one of: mc, qmc-sobol, rqmc-owen, rqmc-shift\)$"):
        sample_points("halton", 16, 2)
    # a fractional count or dimension would run its floor or fail inside
    # numpy (a bare TypeError or AttributeError); both fail before a draw
    for sampler in SAMPLERS:
        for n in (8.5, "8", None, float("nan"), 2.0**53):
            with pytest.raises(ConfigError, match="^count: must lie in 1..2\\^52"):
                sample_points(sampler, n, 2)
            with pytest.raises(ConfigError, match="^count: must lie in 1..2\\^52"):
                sample_losses(SanModel(), sampler, n)
        for dim in (2.5, "2", None):
            with pytest.raises(ConfigError, match="^dim: must be an integer >= 1"):
                sample_points(sampler, 8, dim)
    for sampler in ("mc", "qmc-sobol", "rqmc-owen", "rqmc-shift"):
        for dim in (0, -1):
            with pytest.raises(ConfigError, match="dim"):
                sample_points(sampler, 5, dim)
    # Owen and shift seeds would alias modulo 2^64, MC seeds fail in numpy
    for sampler in ("mc", "rqmc-owen", "rqmc-shift"):
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                sample_points(sampler, 16, 2, seed=seed)


def test_draws_check_the_replication_index():
    # MC streams would fail in numpy, Owen and shift seeds would alias
    # modulo 2^64, and a fraction would fail in numpy or in the hash
    for sampler in SAMPLERS:
        for replication in (-1, 2**64, 2.5):
            with pytest.raises(ConfigError, match="replication"):
                sample_points(sampler, 16, 2, replication=replication)
            with pytest.raises(ConfigError, match="replication"):
                sample_losses(ExpModel(), sampler, 16, 0, replication)
        assert sample_points(sampler, 16, 2, replication=2**64 - 1).shape == (16, 2)
        assert sample_losses(ExpModel(), sampler, 16, 0, 2**64 - 1).shape == (16,)


def test_integer_valued_floats_and_numpy_ints_run_as_their_ints():
    # n, dim, seed and replication checked as ints are what flows on: a
    # float used to reach the walk or numpy and fail there
    for sampler in SAMPLERS:
        points = sample_points(sampler, 8, 2, 5, 3).tobytes()
        losses = sample_losses(SanModel(), sampler, 8, 5, 3).tobytes()
        for kind in (float, np.float64, np.int64, np.uint32):
            assert sample_points(sampler, kind(8), kind(2), kind(5), kind(3)).tobytes() == points, (sampler, kind)
            assert sample_losses(SanModel(), sampler, kind(8), kind(5), kind(3)).tobytes() == losses, (sampler, kind)
    assert sobol_points(4.0, np.int64(2)).points.tobytes() == sobol_points(4, 2).points.tobytes()
    truth = mc_truth(ExpModel(), 0.1, 10**6, seed=2)
    assert mc_truth(ExpModel(), 0.1, 1e6, seed=2.0) == truth
    assert mc_truth(ExpModel(), 0.1, np.int64(10**6), seed=np.uint8(2)) == truth


def test_mc_truth_rejects_fractional_and_non_numeric_counts(no_draws):
    # 1500000.5 used to run 1500000 rows, "1e7" to fail in int()
    for n in (1500000.5, "1e7", None, 999999):
        with pytest.raises(ConfigError, match="^truth_n: must be an integer >= 1000000, for a stable bracket$"):
            mc_truth(ExpModel(), 0.1, n)


def test_mc_truth_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            mc_truth(ExpModel(), 0.1, 10**6, seed=seed)


# ---------------------------------------------------------------- truth resolution


def test_resolve_truth_explicit():
    t = resolve_truth(ExpModel(), 0.1, TruthSpec("explicit", v=2.0, c=1.5))
    assert (t.v, t.c) == (2.0, 1.5)
    assert t.source == "explicit"
    assert t.v_stderr == t.c_stderr == 0.0


def test_resolve_truth_closed_form():
    m = ExpModel()
    t = resolve_truth(m, 0.25, TruthSpec("auto"))
    assert t.v == m.true_quantile(0.25)
    assert t.c == m.true_shortfall(0.25)
    assert t.source == "closed-form"


def test_resolve_truth_requires_closed_form_for_auto():
    with pytest.raises(ConfigError):
        resolve_truth(SanModel(), 0.1, TruthSpec("auto"))


def test_resolve_truth_mc_kind_runs_the_oracle():
    t = resolve_truth(ExpModel(), 0.1, TruthSpec("mc", n=10**6, seed=2))
    assert t.source == "mc"
    assert t.n == 10**6
    assert t.v_stderr > 0.0


# ---------------------------------------------------------------- mc_truth


def test_mc_truth_recovers_closed_form():
    m = ExpModel()
    t = mc_truth(m, 0.1, 10**6, seed=3)
    assert abs(t.v - m.true_quantile(0.1)) < 4.0 * t.v_stderr
    assert abs(t.c - m.true_shortfall(0.1)) < 4.0 * t.c_stderr
    assert t.v_stderr < 1e-3
    assert t.c_stderr < 1e-3


def test_mc_truth_is_tile_size_invariant(monkeypatch):
    for model in (ExpModel(), SanModel()):
        monkeypatch.setattr(lowdisc, "_TILE_COORDS", 1 << 17)
        a = mc_truth(model, 0.1, 10**6, seed=3)
        # 10^6 - 2^19 rows after the pilot: a ragged last tile for every size
        for rows in (1 << 12, 1 << 15, 1 << 20):
            monkeypatch.setattr(lowdisc, "_TILE_COORDS", rows * model.dim)
            b = mc_truth(model, 0.1, 10**6, seed=3)
            # every tiling reads one stream, so the order statistic is
            # identical; the shortfall sums reassociate across tile boundaries
            assert (a.v, a.v_stderr) == (b.v, b.v_stderr), (model, rows)
            assert a.c == pytest.approx(b.c, rel=1e-12), (model, rows)
            assert a.c_stderr == pytest.approx(b.c_stderr, rel=1e-12), (model, rows)


def test_mc_truth_rejects_small_runs():
    with pytest.raises(ConfigError):
        mc_truth(ExpModel(), 0.1, 10**5)


class _CountingModel:
    """Wraps a model and counts the rows it evaluates, from any thread."""

    def __init__(self, model) -> None:
        self.model = model
        self.rows = 0
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self.model.dim

    def evaluate(self, u):
        with self._lock:
            self.rows += len(u)
        return self.model.evaluate(u)

    def tile_losses(self, u, out, y):
        with self._lock:
            self.rows += u.shape[1]
        self.model.tile_losses(u, out, y)


class _RecordingModel:
    """Wraps a model and keeps a copy of every tile it evaluates, as an
    (m, dim) block of rows."""

    def __init__(self, model) -> None:
        self.model = model
        self.tiles = []

    @property
    def dim(self) -> int:
        return self.model.dim

    def tile_losses(self, u, out, y):
        self.tiles.append(u.T.copy())
        self.model.tile_losses(u, out, y)


@pytest.mark.parametrize("model", [ExpModel(), SanModel()], ids=["exp", "san"])
@pytest.mark.parametrize("p", [0.1, 0.02])
def test_mc_truth_is_exact_on_a_stream_held_in_memory(model, p):
    n, seed = 10**6, 5
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, experiments._TRUTH_STREAM_TAG])))
    values = model.evaluate(gen.random((n, model.dim)))
    k = order_index(p, n)
    v = np.partition(values, k - 1)[k - 1]
    c = v - np.maximum(v - values, 0.0).sum() / (p * n)
    counting = _CountingModel(model)
    t = mc_truth(counting, p, n, seed=seed)
    assert t.v == v
    assert t.c == pytest.approx(c, rel=1e-12, abs=0.0)
    # one pass: the pilot is the stream's first rows, not a redraw
    assert counting.rows == n


def _zero_width_bracket_side(model, p: float, n: int, seed: int, v: float) -> str:
    """Where v, the stream's p-quantile, falls against the one-bin bracket
    that ``mc_truth`` builds from its pilot when ``_BRACKET_SIGMAS`` is 0:
    "above", "below" or "inside"."""
    seq = np.random.SeedSequence([seed, experiments._TRUTH_STREAM_TAG])
    pilot = experiments._truth_losses(model, seq, 0, experiments._TRUTH_PILOT)
    pmin, pmax = float(pilot.min()), float(pilot.max())
    lo = pmin - 0.05 * (pmax - pmin)
    hi = pmax + 0.05 * (pmax - pmin)
    inv_h = experiments._TRUTH_BINS / (hi - lo)
    k0 = order_index(p, pilot.size)
    bracket = math.floor((np.partition(pilot, k0 - 1)[k0 - 1] - lo) * inv_h)
    hit = math.floor((v - lo) * inv_h)
    return "above" if hit > bracket else "below" if hit < bracket else "inside"


# the smallest seeds >= 0 whose stream's quantile misses the zero-width
# bracket above it and below it
@pytest.mark.parametrize("seed, side", [(0, "above"), (1, "below")], ids=["quantile-above", "quantile-below"])
def test_mc_truth_reruns_when_the_bracket_misses(monkeypatch, seed, side):
    m = ExpModel()
    base = mc_truth(m, 0.1, 10**6, seed=seed)
    # a zero-width bracket holds only the bin of the pilot's own quantile,
    # which misses the stream's quantile for this seed on ``side``; the
    # rerun extends it over that side
    assert _zero_width_bracket_side(m, 0.1, 10**6, seed, base.v) == side
    monkeypatch.setattr(experiments, "_BRACKET_SIGMAS", 0.0)
    counting = _CountingModel(m)
    rerun = mc_truth(counting, 0.1, 10**6, seed=seed)
    assert counting.rows == 2 * 10**6
    assert rerun.v == base.v  # selection is exact either way
    assert rerun.v_stderr == base.v_stderr
    assert rerun.c == pytest.approx(base.c, rel=1e-12)


def test_mc_truth_fails_when_bracket_never_fits(monkeypatch):
    monkeypatch.setattr(experiments, "_MAX_BRACKET", 1)
    with pytest.raises(WorkLimitError, match="budget"):
        mc_truth(ExpModel(), 0.1, 10**6, seed=3)


def test_mc_truth_emits_progress(monkeypatch):
    messages = []
    monkeypatch.setattr(experiments, "_PROGRESS_ROWS", 1 << 17)
    mc_truth(ExpModel(), 0.1, 10**6, seed=3, progress=messages.append)
    # a message at each multiple of 2^17 rows that the single pass, after
    # the 2^19 rows of the pilot, finishes
    assert messages == [f"truth pass: {k << 17}/1000000 rows" for k in (5, 6, 7)]


@pytest.mark.parametrize(
    "model, block, tile",
    [
        pytest.param(ExpModel(), 1 << 12, 1 << 9, id="exp"),
        pytest.param(SanModel(), 1 << 12, 1 << 9, id="san"),
        # blocks of 1001 rows start at draws that are not multiples of 4
        pytest.param(ExpModel(), 1001, 1 << 8, id="exp-any-row"),
        pytest.param(SanModel(), 1001, 1 << 8, id="san-any-row"),
    ],
)
def test_truth_blocks_are_slices_of_one_stream(monkeypatch, model, block, tile):
    # every call jumps fresh generators to its first draw, as a pass after
    # the pilot starts; together the blocks and their tiles must read one
    # stream front to back, into an array or, tile by tile, into a sink
    monkeypatch.setattr(lowdisc, "_TILE_COORDS", tile * model.dim)
    n, seed = 3 * block + 1000, 7  # a ragged last block, with a ragged last tile
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, experiments._TRUTH_STREAM_TAG])))
    stream = gen.random((n, model.dim))
    seq = np.random.SeedSequence([seed, experiments._TRUTH_STREAM_TAG])
    for b, start in enumerate(range(0, n, block)):
        m = min(block, n - start)
        recording = _RecordingModel(model)
        losses = experiments._truth_losses(recording, seq, start, m)
        want = stream[start : start + block]
        assert max(len(u) for u in recording.tiles) == tile
        assert np.array_equal(np.concatenate(recording.tiles), want), f"block {b}"
        assert np.array_equal(losses, model.evaluate(want)), f"block {b}"
        sunk = np.full(m, np.nan)

        def sink(s, x):
            sunk[s : s + x.size] = x

        assert experiments._truth_losses(model, seq, start, m, sink) is None
        assert sunk.tobytes() == losses.tobytes(), f"block {b}"


@pytest.mark.parametrize("model", [ExpModel(), SanModel()], ids=["exp", "san"])
def test_every_loss_loop_tiles_by_the_walk_rule(monkeypatch, model):
    # evaluate, every sampler's draw and the truth blocks evaluate tiles
    # of exactly ``_tile_rows(dim)`` rows, whatever that rule says
    monkeypatch.setattr(lowdisc, "_TILE_COORDS", 1 << 14)
    widths = []
    kernel = type(model).tile_losses

    def tile_losses(self, u, out, y):
        widths.append(u.shape[1])
        kernel(self, u, out, y)

    monkeypatch.setattr(type(model), "tile_losses", tile_losses)
    rows = lowdisc._tile_rows(model.dim)
    n = 3 * rows + 5
    seq = np.random.SeedSequence([2, experiments._TRUTH_STREAM_TAG])
    draws = {
        "evaluate": lambda: model.evaluate(np.full((n, model.dim), 0.5)),
        "_truth_losses": lambda: experiments._truth_losses(model, seq, 3, n),
    }
    for sampler in SAMPLERS:
        draws[sampler] = lambda sampler=sampler: sample_losses(model, sampler, n, 1, 2)
    for name, draw in draws.items():
        widths.clear()
        draw()
        assert max(widths) == rows, name
        assert sum(widths) == n, name


@pytest.mark.parametrize("sigmas", [8.0, 0.0], ids=["one-pass", "replay"])
def test_mc_truth_does_not_depend_on_the_worker_count(monkeypatch, fine_switching, pool_widths, sigmas):
    # tiles of 2^12 rows, 117 after the pilot and 245 in a replay, reduced
    # where they are drawn and added up in row order; with a zero-width
    # bracket the quantile falls outside it and the stream is replayed
    monkeypatch.setattr(lowdisc, "_TILE_COORDS", 1 << 12)
    monkeypatch.setattr(experiments, "_BRACKET_SIGMAS", sigmas)
    monkeypatch.setattr(experiments, "_PROGRESS_ROWS", 1 << 18)
    n = 10**6
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(lowdisc, "_usable_cpus", lambda workers=workers: workers)
        messages = []
        counting = _CountingModel(ExpModel())
        t = mc_truth(counting, 0.1, n, seed=3, progress=messages.append)
        results.append((t, messages, counting.rows))
    passes = 1 if sigmas else 2
    # the pilot and each pass on every worker
    assert pool_widths == [w for w in (2, 3) for _ in range(1 + passes)]
    marks = [3] if sigmas else [3, 1, 2, 3]
    assert results[0][1] == [f"truth pass: {k << 18}/1000000 rows" for k in marks]
    assert results[0][2] == passes * n
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_mc_truth_peak_memory_is_a_few_blocks(monkeypatch):
    # the pilot's losses and their reduction's temporaries, then each
    # worker's tile-sized draws, evaluation scratch and losses: never a
    # block of points (one 2^19 x 15 block of draws alone is 60 MiB), and
    # no block of losses past the pilot
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 2)
    block_bytes = (1 << 19) * 8
    tracemalloc.start()
    try:
        mc_truth(SanModel(), 0.1, 1 << 21, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * block_bytes


# ---------------------------------------------------------------- convergence harness


def test_constant_model_has_zero_error():
    cfg = ExperimentConfig(
        model=_ConstModel(7.0),
        samplers=("mc", "qmc-sobol", "rqmc-owen"),
        n_grid=(256, 512),
        replications=4,
        truth=TruthSpec("explicit", v=7.0, c=7.0),
    )
    table = run_convergence(cfg)
    for row in table.rows:
        assert row.q_mse == 0.0 and row.es_mse == 0.0
        assert row.q_bias == 0.0 and row.es_bias == 0.0
        assert row.q_mean == 7.0 and row.es_mean == 7.0
    # zero errors cannot be fitted on a log scale
    with pytest.raises(ConfigError):
        rate_summary(table)


def _small_cfg(**overrides):
    kwargs = dict(
        model=ExpModel(),
        samplers=("mc", "rqmc-owen"),
        n_grid=(256, 512),
        replications=8,
        master_seed=3,
        truth=TruthSpec("auto"),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_run_convergence_is_deterministic_across_threads():
    csv_a = run_convergence(_small_cfg()).to_csv()
    csv_b = run_convergence(_small_cfg()).to_csv()
    csv_c = run_convergence(_small_cfg(), threads=4).to_csv()
    assert csv_a == csv_b == csv_c


def test_run_convergence_validates_and_caps_threads(pool_widths):
    # 2.5 used to start a pool of three worker threads; no bad value starts one
    for threads in (0, -3, 2.5, "2"):
        with pytest.raises(ConfigError, match="^threads: must be an integer >= 1$"):
            run_convergence(_small_cfg(replications=2), threads=threads)
    assert pool_widths == []
    serial = run_convergence(_small_cfg(replications=2)).to_csv()
    assert run_convergence(_small_cfg(replications=2), threads=3).to_csv() == serial
    assert pool_widths == [2]  # one pool for both samplers, no wider than R


def test_run_convergence_seed_sensitivity():
    a = run_convergence(_small_cfg()).to_csv()
    b = run_convergence(_small_cfg(master_seed=4)).to_csv()
    assert a != b


def test_run_convergence_matches_manual_composition():
    # the harness evaluates each replication once and slices the losses;
    # here every prefix is evaluated on its own
    for truth_spec, m in ((TruthSpec("auto"), ExpModel()), (TruthSpec("explicit", v=5.683, c=4.845), SanModel())):
        cfg = _small_cfg(model=m, truth=truth_spec, samplers=SAMPLERS, n_grid=(256, 1024), replications=3, master_seed=9)
        table = run_convergence(cfg)
        truth = resolve_truth(m, 0.1, truth_spec)
        for sampler in cfg.samplers:
            reps = 1 if sampler == "qmc-sobol" else 3
            est_q = np.empty((reps, 2))
            est_c = np.empty((reps, 2))
            for r in range(reps):
                for j, n in enumerate((256, 1024)):
                    pts = sample_points(sampler, n, m.dim, seed=9, replication=r)
                    batch = SampleBatch(m.evaluate(pts))
                    est_q[r, j] = quantile_estimate(batch, 0.1)
                    est_c[r, j] = shortfall_estimate(batch, 0.1)
            rows = table.for_sampler(sampler)
            for j, row in enumerate(rows):
                q, c = est_q[:, j], est_c[:, j]
                assert row.q_mean == float(q.mean())
                assert row.q_bias == float(q.mean() - truth.v)
                assert row.q_mse == float(((q - truth.v) ** 2).mean())
                assert row.es_mean == float(c.mean())
                assert row.es_mse == float(((c - truth.c) ** 2).mean())
                want_stderr = float(((q - truth.v) ** 2).std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
                assert row.mse_stderr == want_stderr


def test_a_study_evaluates_each_replication_once_at_the_largest_n():
    # R = 3 for mc, owen and shift, one run of qmc-sobol
    model = _CountingModel(SanModel())
    cfg = ExperimentConfig(
        model=model,
        samplers=SAMPLERS,
        n_grid=(256, 512, 1024),
        replications=3,
        truth=TruthSpec("explicit", v=5.683, c=4.845),
    )
    run_convergence(cfg)
    assert model.rows == (3 + 1 + 3 + 3) * 1024


@pytest.mark.parametrize("sampler", ["qmc-sobol", "rqmc-owen", "rqmc-shift", "mc"])
def test_sampled_losses_are_the_model_of_the_points(monkeypatch, fine_switching, sampler):
    # 33 walk tiles at d = 15, the last one ragged; on 2 CPUs the walk
    # evaluates its tiles on two pool threads
    n = 32 * lowdisc._tile_rows(15) + 7
    model = _CountingModel(SanModel())
    want = model.evaluate(sample_points(sampler, n, model.dim, seed=5, replication=2))
    for cpus in (1, 2):
        monkeypatch.setattr(lowdisc, "_usable_cpus", lambda cpus=cpus: cpus)
        model.rows = 0
        got = sample_losses(model, sampler, n, 5, 2)
        assert got.tobytes() == want.tobytes(), cpus
        assert model.rows == n, cpus


def test_sampled_losses_never_hold_the_points():
    # the 2^16 x 15 points of one study replication are 7.5 MiB; the
    # losses, three tiles of scratch and the Owen table read 0.48x that
    # for owen, and the losses and PCG64 tiles 0.34x for mc
    model = SanModel()
    n = 1 << 16
    for sampler in ("rqmc-owen", "mc"):
        sample_losses(model, sampler, n, 1, 0)  # direction numbers
        tracemalloc.start()
        try:
            sample_losses(model, sampler, n, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * model.dim * 8 * 2 / 3, sampler


def test_owen_losses_peak_is_the_losses_plus_one_workers_scratch():
    # beside the n losses: one worker's x, z and t, the Owen flip table and
    # the Sobol' lead, half a tile, built here from a cold cache.  The model
    # works in the walk's float tile, so no (15, rows) evaluation copy, a
    # whole tile more, appears
    model = SanModel()
    n, d = 1 << 16, model.dim
    tile = d * lowdisc._tile_rows(d) * 8
    want = n * 8 + 3 * tile + d * (1 << randomize._OWEN_TABLE_DIGITS) * 4 + tile // 2
    sample_losses(model, "rqmc-owen", n, 1, 0)  # direction numbers
    lowdisc._lead.cache_clear()
    tracemalloc.start()
    try:
        sample_losses(model, "rqmc-owen", n, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert want <= peak < want + tile // 8


@pytest.mark.parametrize("loop", ["evaluate", "mc"])
def test_pooled_loss_loop_peak_is_the_losses_plus_each_workers_scratch(monkeypatch, pool_widths, loop):
    # 64 tiles on four workers.  Beside the n losses each worker holds its
    # (15, rows) evaluation scratch and, for mc, its drawn tile as well; no
    # worker holds a second tile or a block of more than a tile's rows
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 4)
    model = SanModel()
    n, d = 1 << 19, model.dim
    tile = d * lowdisc._tile_rows(d) * 8
    if loop == "evaluate":
        block = np.random.default_rng(1).random((n, d))
        call, want = lambda: model.evaluate(block), n * 8 + 4 * tile
    else:
        call, want = lambda: sample_losses(model, "mc", n, 1, 0), n * 8 + 4 * 2 * tile
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool_widths == [4]
    assert want <= peak < want + tile // 8


@pytest.mark.parametrize(
    "n, sampler, seed",
    [(0, "rqmc-owen", 0), (16, "sobol", 0), (16, "mc", -1), (16, "rqmc-owen", 2**64)],
    ids=["count", "sampler", "seed-low", "seed-high"],
)
def test_sample_losses_rejects_what_sample_points_rejects(n, sampler, seed):
    model = SanModel()
    with pytest.raises(ConfigError) as points_error:
        sample_points(sampler, n, model.dim, seed=seed)
    with pytest.raises(ConfigError) as losses_error:
        sample_losses(model, sampler, n, seed=seed)
    assert str(losses_error.value) == str(points_error.value)


def test_qmc_sampler_is_forced_to_one_replication():
    cfg = ExperimentConfig(
        model=ExpModel(),
        samplers=("qmc-sobol",),
        n_grid=(256, 512),
        replications=100,
        truth=TruthSpec("auto"),
    )
    table = run_convergence(cfg)
    for row in table.rows:
        assert row.r == 1
        assert row.mse_stderr == 0.0
        # a single deterministic run: mse is that run's squared error
        assert row.q_mse == pytest.approx(row.q_bias**2, rel=1e-12)
        assert row.es_mse == pytest.approx(row.es_bias**2, rel=1e-12)


def test_mc_mse_scales_inversely_with_n():
    cfg = ExperimentConfig(
        model=ExpModel(),
        samplers=("mc",),
        n_grid=tuple(2**i for i in range(8, 13)),
        replications=50,
        master_seed=11,
        truth=TruthSpec("auto"),
    )
    table = run_convergence(cfg)
    scaled = [row.q_mse * row.n for row in table.rows]
    assert max(scaled) / min(scaled) < 10.0


def test_owen_quantile_mse_decreases_across_grid():
    cfg = ExperimentConfig(
        model=ExpModel(),
        samplers=("rqmc-owen",),
        n_grid=tuple(2**i for i in range(8, 13)),
        replications=100,
        master_seed=1,
        truth=TruthSpec("auto"),
    )
    rows = run_convergence(cfg).rows
    mses = [row.q_mse for row in rows]
    assert all(b < a for a, b in zip(mses, mses[1:]))


class _FailingModel(_ConstModel):
    def evaluate(self, u):
        raise RuntimeError("model failure")

    def tile_losses(self, u, out, y):
        raise RuntimeError("model failure")


def test_no_pool_thread_outlives_a_failed_call(monkeypatch, pool_widths):
    # each count is taken while the error is handled, when its traceback
    # still holds the failed call's frames: the pool must be gone by then,
    # not only once those frames are freed
    def live_threads_on(error, call):
        try:
            call()
        except error:
            return threading.active_count()
        pytest.fail(f"no {error.__name__}")

    before = threading.active_count()
    # the truth pass's reduction raises in a worker, with tiles still to
    # run: 117 tiles of 2^12 rows on 2 workers, after a pilot on 2
    with monkeypatch.context() as patch:
        patch.setattr(lowdisc, "_usable_cpus", lambda: 2)
        patch.setattr(lowdisc, "_TILE_COORDS", 1 << 12)
        patch.setattr(experiments, "_MAX_BRACKET", 1 << 12)
        assert live_threads_on(WorkLimitError, lambda: mc_truth(ExpModel(), 0.1, 10**6, seed=1)) == before
    # a walk worker raises: 4 walk tiles on 3 workers
    pts = sobol_points(4 * lowdisc._tile_rows(15), 15).points.copy()
    pts[-1, 7] = 1.0 / 3.0
    ps = PointSet(pts)
    monkeypatch.setattr(lowdisc, "_TILES_PER_WORKER", 1)
    monkeypatch.setattr(lowdisc, "_usable_cpus", lambda: 3)
    assert live_threads_on(PrecisionError, lambda: owen_scramble(ps, 1)) == before
    # a loss-loop worker raises: 4 tiles of an evaluate on 3 workers
    block = np.zeros((4 * lowdisc._tile_rows(2), 2))
    assert live_threads_on(RuntimeError, lambda: models._evaluate(_FailingModel(), block)) == before
    # a study's replication raises on its first evaluation
    cfg = _small_cfg(model=_FailingModel(), truth=TruthSpec("explicit", v=7.0, c=7.0))
    assert live_threads_on(RuntimeError, lambda: run_convergence(cfg, threads=2)) == before
    assert pool_widths == [2, 2, 3, 3, 2]


# ---------------------------------------------------------------- rate fitting


def test_fit_rate_exact_slopes():
    ns = [2**i for i in range(8, 13)]
    slope, _ = fit_rate(ns, [4.0 / n for n in ns])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    slope, _ = fit_rate(ns, [0.25] * len(ns))
    assert slope == pytest.approx(0.0, abs=1e-12)
    slope, intercept = fit_rate(ns, [8.0 / n**2 for n in ns])
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert intercept == pytest.approx(3.0, abs=1e-12)  # log2(8)


def test_fit_rate_validation():
    with pytest.raises(ConfigError):
        fit_rate([256, 512], [1.0, 0.5])
    with pytest.raises(ConfigError):
        fit_rate([256, 512, 1024], [1.0, 0.5])
    with pytest.raises(ConfigError):
        fit_rate([256, 512, 1024], [1.0, 0.0, 0.5])
    with pytest.raises(ConfigError):
        fit_rate([256, 512, 1024], [1.0, -0.5, 0.5])


def _synthetic_table(r: int, slope_power: float) -> ResultTable:
    rows = []
    for n in (2**i for i in range(8, 15)):
        mse = float(n) ** slope_power
        rows.append(
            ResultRow(
                sampler="qmc-sobol", n=n, r=r,
                q_mean=1.0, q_bias=0.0, q_mse=mse,
                es_mean=1.0, es_bias=0.0, es_mse=2.0 * mse,
                mse_stderr=0.0,
            )
        )
    truth = TruthResult(1.0, 1.0, 0.0, 0.0, "explicit", 0)
    return ResultTable(tuple(rows), truth)


def test_rate_summary_excludes_preasymptotic_points():
    # with R = 1 the leading grid sizes fall below the draw threshold
    fits = rate_summary(_synthetic_table(r=1, slope_power=-2.0))
    fit = fits["qmc-sobol"]
    assert fit.excluded == (256, 512, 1024, 2048)
    assert fit.ns == (4096, 8192, 16384)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_rate_summary_keeps_all_points_when_replicated():
    fits = rate_summary(_synthetic_table(r=100, slope_power=-1.0), metric="es_mse")
    fit = fits["qmc-sobol"]
    assert fit.excluded == ()
    assert fit.metric == "es_mse"
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_rate_summary_validates_metric():
    with pytest.raises(ConfigError):
        rate_summary(_synthetic_table(r=100, slope_power=-1.0), metric="bias")


# ---------------------------------------------------------------- CSV output


def test_csv_layout_and_round_trip():
    table = run_convergence(_small_cfg())
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(table.rows)
    # sampler blocks follow config order, sizes ascend within a block
    samplers = [line.split(",")[0] for line in lines[1:]]
    assert samplers == ["mc", "mc", "rqmc-owen", "rqmc-owen"]
    for line, row in zip(lines[1:], table.rows):
        cells = line.split(",")
        assert len(cells) == 10
        assert cells[0] == row.sampler
        assert int(cells[1]) == row.n
        assert int(cells[2]) == row.r
        # 9 significant digits round-trip well below reporting precision
        for cell, want in zip(cells[3:], (
            row.q_mean, row.q_bias, row.q_mse,
            row.es_mean, row.es_bias, row.es_mse, row.mse_stderr,
        )):
            assert float(cell) == pytest.approx(want, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------- config documents


def test_load_experiment_minimal_document():
    cfg = load_experiment("[model]\nkind = exp\n")
    assert isinstance(cfg.model, ExpModel)
    assert cfg.p == 0.1
    assert cfg.n_grid == DEFAULT_GRID
    assert cfg.replications == 100
    assert cfg.truth.kind == "auto"


def test_load_experiment_full_document():
    text = """
[experiment]
p = 0.05
samplers = mc, owen
n_grid = 2^8..2^10, 2^12
replications = 25
master_seed = 0x10
truth = mc
truth_n = 2e6
truth_seed = 7

[model]
kind = san-15
"""
    cfg = load_experiment(text)
    assert isinstance(cfg.model, SanModel)
    assert cfg.p == 0.05
    assert cfg.samplers == ("mc", "rqmc-owen")
    assert cfg.n_grid == (256, 512, 1024, 4096)
    assert cfg.replications == 25
    assert cfg.master_seed == 16
    assert cfg.truth.kind == "mc"
    assert cfg.truth.n == 2 * 10**6
    assert cfg.truth.seed == 7


def test_load_experiment_counts_use_the_count_parser():
    cfg = load_experiment("[experiment]\ntruth = mc\ntruth_n = 2^20\n[model]\nkind = exp\n")
    assert cfg.truth.n == 1048576
    # replications used to fail in int() on both, which truth_n took
    for raw, want in (("2.0", 2), ("1e2", 100), ("2^3", 8)):
        assert load_experiment(f"[experiment]\nreplications = {raw}\n[model]\nkind = exp\n").replications == want
    cfg = load_experiment("[experiment]\nn_grid = 1.6e1..2^5\n[model]\nkind = exp\n")
    assert cfg.n_grid == (16, 32)
    for key, value in (
        ("truth_n", "1000000.7"),
        ("truth_n", "many"),
        ("n_grid", "2^x"),
        ("n_grid", "8..1e400"),
        ("replications", "2.5"),
    ):
        with pytest.raises(ConfigError, match=key):
            load_experiment(f"[experiment]\n{key} = {value}\n[model]\nkind = exp\n")


def test_load_experiment_explicit_truth_values_imply_kind():
    text = "[experiment]\ntruth_v = 2.5\ntruth_c = 2.1\n[model]\nkind = san-15\n"
    cfg = load_experiment(text)
    assert cfg.truth.kind == "explicit"
    assert (cfg.truth.v, cfg.truth.c) == (2.5, 2.1)


@pytest.mark.parametrize(
    "keys, bad",
    [
        ("truth = mc\ntruth_v = 2.5\ntruth_c = 2.1", "truth_v"),
        ("truth = auto\ntruth_c = 2.1", "truth_c"),
        ("truth = auto\ntruth_n = 5", "truth_n"),
        ("truth_seed = 3", "truth_seed"),
        ("truth = explicit\ntruth_v = 2.5\ntruth_c = 2.1\ntruth_n = 1e6", "truth_n"),
        ("truth_v = 2.5\ntruth_c = 2.1\ntruth_seed = 3", "truth_seed"),
    ],
    ids=["v-mc", "c-auto", "n-auto", "seed-auto", "n-explicit", "seed-implied-explicit"],
)
def test_load_experiment_rejects_truth_keys_the_kind_never_reads(keys, bad):
    with pytest.raises(ConfigError, match=f"^{bad}: "):
        load_experiment(f"[experiment]\n{keys}\n[model]\nkind = san-15\n")


def test_load_experiment_errors():
    with pytest.raises(ConfigError, match="model"):
        load_experiment("[experiment]\np = 0.1\n")
    with pytest.raises(ConfigError, match="budget"):
        load_experiment("[experiment]\nbudget = 5\n[model]\nkind = exp\n")
    # the same message as ExperimentConfig's, with the names it accepts
    with pytest.raises(ConfigError, match=r"^samplers: unknown sampler 'halton' \(expected one of: mc, qmc-sobol, "):
        load_experiment("[experiment]\nsamplers = halton\n[model]\nkind = exp\n")
    with pytest.raises(ConfigError, match="n_grid"):
        load_experiment("[experiment]\nn_grid = 2^10..2^8\n[model]\nkind = exp\n")
    with pytest.raises(ConfigError, match="n_grid"):
        load_experiment("[experiment]\nn_grid = 300\n[model]\nkind = exp\n")
    # each key's parse error names the key; they all used to read
    # "[experiment]: <Python's int() or float() message>"
    for keys, bad in (
        ("replications = soon", "replications"),
        ("p = abc", "p"),
        ("master_seed = 1.5", "master_seed"),
        ("truth = mc\ntruth_seed = seven", "truth_seed"),
        ("truth_v = abc\ntruth_c = 2.1", "truth_v"),
        ("truth_v = 2.5\ntruth_c = 2,1", "truth_c"),
    ):
        with pytest.raises(ConfigError, match=f"^{bad}: expected "):
            load_experiment(f"[experiment]\n{keys}\n[model]\nkind = exp\n")
    with pytest.raises(ConfigError):
        load_experiment("[experiment]\ntruth = explicit\n[model]\nkind = exp\n")
