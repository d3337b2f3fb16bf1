"""Span arithmetic and the layer metrics derived from it."""

import threading

import pytest

import qmcrisk
from tracing import Span, Tracer, covered, layer_metrics, patched, self_times


def span(i, name, start, end, parent=None, work=0, workers=0):
    return Span(i, name, parent, start, end, work=work, workers=workers)


def test_covered_merges_overlaps_and_clips_to_the_span():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 2.0), (3.0, 5.0)]) == pytest.approx(3.0)
    # overlapping children from two threads count once
    assert covered(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0), (5.0, 7.0)]) == pytest.approx(6.0)
    # nested and touching intervals
    assert covered(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0), (9.0, 9.5)]) == pytest.approx(8.5)
    # parts outside the parent are cut off
    assert covered(2.0, 4.0, [(0.0, 3.0), (3.5, 8.0)]) == pytest.approx(1.5)


def test_self_time_subtracts_only_direct_children():
    spans = [
        span(0, "experiments.run_convergence", 0.0, 10.0),
        span(1, "experiments.pool.task", 1.0, 6.0, parent=0),
        span(2, "experiments.pool.task", 2.0, 8.0, parent=0),
        span(3, "randomize.owen_scramble", 1.5, 5.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0)
    assert own[1] == pytest.approx(5.0 - 3.5)
    assert own[2] == pytest.approx(6.0)
    assert own[3] == pytest.approx(3.5)


def test_layer_metrics_counts_work_and_useful_rows():
    spans = [
        span(0, "experiments.run_convergence", 0.0, 10.0),
        span(1, "experiments.pool.task", 0.0, 8.0, parent=0, workers=2),
        span(2, "experiments.pool.task", 1.0, 7.0, parent=0, workers=2),
        span(3, "randomize.owen_scramble", 0.5, 4.5, parent=1, work=4000),
        span(4, "models.evaluate", 4.5, 6.5, parent=1, work=300),
        span(5, "models.evaluate", 2.0, 3.0, parent=2, work=100),
        span(6, "estimators", 6.5, 7.0, parent=1),
    ]
    m = layer_metrics(spans, ops=2, useful_points=100)
    assert m["randomize.owen_scramble.s"] == pytest.approx(2.0)
    assert m["randomize.owen_scramble.ns_per_coord"] == pytest.approx(4.0 / 4000 * 1e9)
    assert m["randomize.owen_scramble.coords"] == 2000
    assert m["models.evaluate.rows"] == 200
    assert m["models.evaluate.ns_per_row"] == pytest.approx(3.0 / 400 * 1e9)
    # 2 operations x 100 useful rows out of 400 evaluated
    assert m["models.evaluate.useful_ratio"] == pytest.approx(0.5)
    assert m["estimators.calls"] == 0.5
    assert m["randomize.digital_shift.s"] == 0.0
    # busy 8 + 6 task seconds over 2 workers x 10 s
    assert m["experiments.pool.busy_frac"] == pytest.approx(0.7)
    # run_convergence: 10 - 8 covered; task 1: 8 - 6.5; task 2: 6 - 1
    assert m["experiments.self_s"] == pytest.approx((2.0 + 1.5 + 5.0) / 2)


def test_layer_metrics_needs_a_traced_operation():
    with pytest.raises(ValueError):
        layer_metrics([], ops=0, useful_points=1)


def test_spans_opened_in_other_threads_take_the_given_parent():
    tracer = Tracer()

    def worker(root_id):
        with tracer.span("task", parent=root_id):
            with tracer.span("leaf"):
                pass
        with tracer.span("orphan"):
            pass

    with tracer.span("root") as root:
        t = threading.Thread(target=worker, args=(root.id,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["task"].parent == root.id
    assert by_name["leaf"].parent == by_name["task"].id
    # a thread does not inherit the spans open in another one
    assert by_name["orphan"].parent is None
    assert root.parent is None


def test_patched_routes_package_calls_and_restores_them():
    sobol = qmcrisk.experiments.sobol_points
    tracer = Tracer()
    model = qmcrisk.SanModel()
    with patched(tracer, qmcrisk):
        cfg = qmcrisk.ExperimentConfig(
            model=model,
            samplers=("rqmc-owen", "rqmc-shift"),
            n_grid=(16, 32, 64),
            replications=2,
            truth=qmcrisk.TruthSpec("explicit", v=5.683, c=4.845),
        )
        qmcrisk.run_convergence(cfg, threads=2)
    assert qmcrisk.experiments.sobol_points is sobol
    assert not tracer.missing
    names = [s.name for s in tracer.spans]
    assert names.count("experiments.run_convergence") == 1
    assert names.count("experiments.pool.task") == 4
    assert names.count("randomize.owen_scramble") == 2
    assert names.count("randomize.digital_shift") == 2
    # every grid prefix is evaluated: 16 + 32 + 64 rows per replication
    m = layer_metrics(tracer.spans, ops=1, useful_points=2 * 2 * 64)
    assert m["models.evaluate.rows"] == 4 * (16 + 32 + 64)
    assert m["models.evaluate.useful_ratio"] == pytest.approx(64 / 112)
    assert m["randomize.owen_scramble.coords"] == 2 * 64 * model.dim
    assert m["estimators.calls"] == 4 * 3 * 3
    assert 0.0 < m["experiments.pool.busy_frac"] <= 1.0
