"""Workload configs, useful-work counting and the output checks."""

import numpy as np
import pytest

import qmcrisk
import workloads as wl
from workloads import WORKLOADS


def test_useful_points_count_what_each_workload_delivers():
    study = WORKLOADS["study-rqmc"]
    assert study.useful_points(study.config(7, 2)) == 2 * 16 * 2 ** 16
    truth = WORKLOADS["truth-mc"]
    assert truth.useful_points(truth.config(7, 2)) == 10 ** 7
    assert WORKLOADS["owen-large"].useful_points(WORKLOADS["owen-large"].config(7, 2)) == 2 ** 19
    assert WORKLOADS["shift-large"].useful_points(WORKLOADS["shift-large"].config(7, 2)) == 2 ** 20


def test_configs_carry_the_seed_and_nothing_random():
    for w in WORKLOADS.values():
        assert w.config(11, 2) == w.config(11, 2)
        assert w.config(11, 2) != w.config(12, 2)
    assert WORKLOADS["study-rqmc"].config(3, 2)["threads"] == 2


def small_estimate(sampler="rqmc-owen", n=1 << 12, seed=5):
    cfg = {"sampler": sampler, "n": n, "dim": 15, "p": 0.1, "seed": seed}
    return cfg, wl.estimate_run(qmcrisk, cfg)


@pytest.mark.parametrize("sampler", ["rqmc-owen", "rqmc-shift"])
def test_estimate_check_passes_a_real_result(sampler):
    cfg, out = small_estimate(sampler)
    assert wl.estimate_check(qmcrisk, cfg, out) == []


def test_estimate_check_rejects_a_shifted_v():
    cfg, out = small_estimate()
    out["v"] += 1.0
    problems = wl.estimate_check(qmcrisk, cfg, out)
    assert len(problems) == 1 and problems[0].startswith("v = ")


def test_estimate_check_rejects_points_from_another_scramble_seed():
    cfg, _ = small_estimate(seed=5)
    _, other = small_estimate(seed=6)
    problems = wl.estimate_check(qmcrisk, cfg, other)
    assert any("fresh rqmc-owen draw with seed 5" in p for p in problems)


def test_estimate_check_rejects_points_that_are_not_a_net():
    cfg, out = small_estimate()
    out["points"] = qmcrisk.sample_points("mc", cfg["n"], 15, seed=cfg["seed"])
    problems = wl.estimate_check(qmcrisk, cfg, out)
    assert any("not stratified" in p for p in problems)


def test_reference_check_scales_with_the_sample_size():
    assert wl.check_against_reference(wl.SAN_V, wl.SAN_C, 10 ** 7) == []
    # a shift of 0.01 is within five MC errors at 2^12 but not at 10^7
    assert wl.check_against_reference(wl.SAN_V + 0.01, wl.SAN_C, 1 << 12) == []
    assert len(wl.check_against_reference(wl.SAN_V + 0.01, wl.SAN_C, 10 ** 7)) == 1
    assert len(wl.check_against_reference(wl.SAN_V, float("nan"), 10 ** 7)) == 1


def test_truth_check():
    cfg = WORKLOADS["truth-mc"].config(1, 2)
    good = {"v": 5.6821461655806065, "c": 4.844132966415598, "n": cfg["n_truth"]}
    assert wl.truth_check(qmcrisk, cfg, good) == []
    assert wl.truth_check(qmcrisk, cfg, dict(good, v=good["v"] + 0.02))
    assert wl.truth_check(qmcrisk, cfg, dict(good, n=10 ** 6))


def study_rows(cfg, q_mse, mse_stderr=1e-5):
    rows = []
    for sampler in cfg["samplers"]:
        for n in cfg["n_grid"]:
            rows.append({
                "sampler": sampler, "n": n, "r": cfg["replications"], "q_mean": 5.683,
                "q_bias": 0.0, "q_mse": q_mse, "es_mean": 4.845, "es_bias": 0.0,
                "es_mse": q_mse, "mse_stderr": mse_stderr,
            })
    return {"csv": "", "rows": rows}


def test_study_check_compares_with_plain_mc():
    cfg = WORKLOADS["study-rqmc"].config(1, 2)
    bound = wl.mc_mse_v(2 ** 16)
    assert bound == pytest.approx(0.1 * 0.9 / (2 ** 16 * wl.SAN_DENSITY ** 2))
    assert wl.study_check(qmcrisk, cfg, study_rows(cfg, bound / 3)) == []
    assert len(wl.study_check(qmcrisk, cfg, study_rows(cfg, bound * 1.01))) == 2
    # identical replications (a scramble that ignores its seed) fail
    assert len(wl.study_check(qmcrisk, cfg, study_rows(cfg, bound / 3, mse_stderr=0.0))) == 2
    out = study_rows(cfg, bound / 3)
    out["rows"] = out["rows"][:-1]
    assert len(wl.study_check(qmcrisk, cfg, out)) == 1
    out = study_rows(cfg, bound / 3)
    out["rows"][0]["q_bias"] = float("inf")
    assert len(wl.study_check(qmcrisk, cfg, out)) == 1


def test_study_check_passes_a_real_small_study():
    cfg = dict(WORKLOADS["study-rqmc"].config(1, 2), n_grid=[2 ** 10, 2 ** 11, 2 ** 12], replications=8)
    out = wl.study_run(qmcrisk, cfg)
    assert wl.study_check(qmcrisk, cfg, out) == []
    assert wl.study_fingerprint(out) == wl.study_fingerprint(wl.study_run(qmcrisk, cfg))


def test_value_fingerprint_keeps_every_digit():
    a = {"v": 1.0, "c": 2.0}
    b = {"v": np.nextafter(1.0, 2.0), "c": 2.0}
    assert wl.value_fingerprint(a) != wl.value_fingerprint(b)
