import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qmcrisk.cli as cli
import qmcrisk.experiments as experiments
from qmcrisk.cli import main
from qmcrisk.estimators import SampleBatch, quantile_estimate, shortfall_estimate
from qmcrisk.experiments import CSV_HEADER, sample_points
from qmcrisk.lowdisc import sobol_points
from qmcrisk.models import SanModel

EXP_CFG = "[model]\nkind = exp\nlambda = 1.0\n"

SMALL_STUDY = """
[experiment]
samplers = mc, owen
n_grid = 2^8..2^10
replications = 5
master_seed = 3

[model]
kind = exp
"""


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- points


def test_points_sobol_first_row_is_origin(capsys):
    code, out, _ = _run(capsys, "points", "--sampler", "sobol", "-d", "2", "-n", "4")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 4
    assert rows[0] == "0,0"
    assert rows[1] == "0.5,0.5"


def test_points_round_trip_17_digits(capsys):
    code, out, _ = _run(capsys, "points", "--sampler", "owen", "-d", "3", "-n", "8", "--seed", "5")
    assert code == 0
    parsed = np.array([[float(v) for v in line.split(",")] for line in out.strip().split("\n")])
    want = sample_points("rqmc-owen", 8, 3, seed=5)
    assert np.array_equal(parsed, want)  # 17 significant digits are lossless


def test_points_seed_determinism(capsys):
    _, out1, _ = _run(capsys, "points", "--sampler", "mc", "-d", "2", "-n", "16", "--seed", "9")
    _, out2, _ = _run(capsys, "points", "--sampler", "mc", "-d", "2", "-n", "16", "--seed", "9")
    _, out3, _ = _run(capsys, "points", "--sampler", "mc", "-d", "2", "-n", "16", "--seed", "10")
    assert out1 == out2
    assert out1 != out3


def test_points_count_accepts_power_notation(capsys):
    code, out, _ = _run(capsys, "points", "--sampler", "sobol", "-d", "1", "-n", "2^4")
    assert code == 0
    assert len(out.strip().split("\n")) == 16


def test_points_writes_output_file(capsys, tmp_path):
    target = tmp_path / "pts.csv"
    code, out, _ = _run(capsys, "points", "--sampler", "sobol", "-d", "2", "-n", "4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("0,0\n")


def test_points_rejects_bad_arguments(capsys):
    code, _, err = _run(capsys, "points", "-d", "0", "-n", "4")
    assert code == 1 and "--dim" in err
    code, _, err = _run(capsys, "points", "-d", "2", "-n", "x")
    assert code == 1 and "--count" in err
    code, _, err = _run(capsys, "points", "-d", "2", "-n", "1e400")  # float overflows to inf
    assert code == 1 and "--count" in err
    code, _, err = _run(capsys, "points", "-d", "2", "-n", "4", "--sampler", "halton")
    assert code == 1


@pytest.mark.parametrize(
    "argv", [("points", "-d", "2", "-n", "1000000.7"), ("estimate", "-n", "2^x"), ("points", "-d", "2", "-n", "2^-1")]
)
def test_bad_counts_report_the_count_syntax(capsys, argv):
    # the parser's own message, not argparse's "invalid _parse_count value"
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert "--count: expected an integer, 2^k or 1e8-style literal" in err


@pytest.mark.parametrize("command", ["points -d 2", "estimate"])
@pytest.mark.parametrize("count, sampler", [("2^53", "owen"), ("2^9999999", "owen"), ("2^60", "mc"), ("2^53", "sobol")])
def test_counts_past_the_generator_range_exit_1(capsys, command, count, sampler):
    # no draw of more than 2^52 points could be held; the range check runs
    # before any array is made, so these fail at once
    code, out, err = _run(capsys, *command.split(), "-n", count, "--sampler", sampler)
    assert code == 1 and out == ""
    assert err == "error: count: must lie in 1..2^52, the generator's range\n"


def test_a_power_count_never_builds_its_integer():
    # 2^k used to build the whole k-bit integer before any range check: a
    # 12.5 MB one here, and about 1.25 GB for 2^10000000000
    tracemalloc.start()
    try:
        count = experiments.parse_count("2^100000000", "--count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert count.bit_length() <= 64


# ---------------------------------------------------------------- verify-net


def test_verify_net_passes_on_digital_net(capsys, tmp_path):
    target = tmp_path / "net.csv"
    _run(capsys, "points", "--sampler", "sobol", "-d", "2", "-n", "16", "--out", str(target))
    code, out, _ = _run(capsys, "verify-net", "--file", str(target), "-t", "0", "-m", "4", "-d", "2")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_net_reports_failure_with_witness(capsys, tmp_path):
    target = tmp_path / "bad.csv"
    target.write_text("0\n0.1\n0.2\n0.3\n")
    code, out, _ = _run(capsys, "verify-net", "--file", str(target), "-t", "0", "-m", "2", "-d", "1")
    assert code == 0  # the check ran; the verdict is in the output
    assert out.startswith("FAIL")
    assert "3 points" in out


def test_verify_net_rejects_wrong_count(capsys, tmp_path):
    target = tmp_path / "five.csv"
    target.write_text("0\n0.125\n0.25\n0.5\n0.75\n")
    code, _, err = _run(capsys, "verify-net", "--file", str(target), "-t", "0", "-m", "2", "-d", "1")
    assert code == 1
    assert "expected" in err


def test_verify_net_rejects_nan_coordinate(capsys, tmp_path):
    target = tmp_path / "nan.csv"
    target.write_text("0\n0.25\nnan\n0.75\n")
    code, _, err = _run(capsys, "verify-net", "--file", str(target), "-t", "0", "-m", "2", "-d", "1")
    assert code == 1
    assert "[0, 1)" in err


def test_verify_net_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, "verify-net", "--file", str(tmp_path / "nope.csv"), "-t", "0", "-m", "2", "-d", "1")
    assert code == 1
    assert "--file" in err


# ---------------------------------------------------------------- estimate


def test_estimate_matches_library_composition(capsys):
    code, out, _ = _run(capsys, "estimate", "-n", "2^10", "--sampler", "owen", "--seed", "3")
    assert code == 0
    model = SanModel()
    pts = sample_points("rqmc-owen", 1024, model.dim, seed=3)
    batch = SampleBatch(model.evaluate(pts))
    v = quantile_estimate(batch, 0.1)
    c = shortfall_estimate(batch, 0.1)
    assert f"quantile = {v:.9g}" in out
    assert f"shortfall = {c:.9g}" in out
    assert "sampler = owen" in out and "N = 1024" in out


@pytest.mark.parametrize("sampler", ["owen", "mc"])
def test_estimate_never_holds_the_points(capsys, sampler):
    # the 2^17 x 15 sample is 15 MiB; the run holds its losses, the batch's
    # copy of them and tile-sized blocks
    n, dim = 1 << 17, 15
    _run(capsys, "estimate", "-n", "2^4", "--sampler", sampler)  # direction numbers
    tracemalloc.start()
    try:
        code, out, _ = _run(capsys, "estimate", "-n", "2^17", "--sampler", sampler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "quantile" in out
    assert peak < n * dim * 8 * 2 / 3


def test_estimate_with_model_config(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXP_CFG)
    code, out, _ = _run(
        capsys, "estimate", "--config", str(cfg), "-n", "2^14", "-p", "0.1", "--sampler", "owen", "--seed", "1"
    )
    assert code == 0
    v = float(out.split("quantile = ")[1].split("\n")[0])
    assert abs(v - 0.10536052) < 5e-3


def test_seeds_outside_64_bits_exit_1(capsys):
    # owen and shift seeds would alias modulo 2^64, and numpy rejects
    # negative mc and truth seeds only once the run has started
    for argv in (
        ("estimate", "-n", "256", "--sampler", "owen", "--seed", str(2**64)),
        ("estimate", "-n", "256", "--sampler", "owen", "--seed", "-1"),
        ("estimate", "-n", "256", "--sampler", "shift", "--seed", "-1"),
        ("estimate", "-n", "256", "--sampler", "mc", "--seed", "-1"),
        ("points", "-d", "2", "-n", "4", "--seed", str(2**64)),
        ("truth", "-n", "1e6", "--seed", "-1"),
        ("converge", "--seed", "-1"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and "seed" in err and out == "", argv
    code, out, _ = _run(capsys, "estimate", "-n", "256", "--sampler", "owen", "--seed", str(2**64 - 1))
    assert code == 0 and "quantile" in out


def test_estimate_rejects_bad_level(capsys, monkeypatch):
    code, _, err = _run(capsys, "estimate", "-n", "256", "-p", "2.0")
    assert code == 1
    assert "risk level" in err
    # the level is checked before anything is drawn
    calls = []
    monkeypatch.setattr(cli, "sample_losses", lambda *args, **kwargs: calls.append(args))
    code, _, err = _run(capsys, "estimate", "-n", "2^21", "--sampler", "mc", "-p", "1.5")
    assert code == 1
    assert "risk level" in err
    assert calls == []


# ---------------------------------------------------------------- truth


def test_truth_small_run_matches_closed_form(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXP_CFG)
    code, out, err = _run(capsys, "truth", "--config", str(cfg), "-n", "1e6", "--seed", "2")
    assert code == 0
    v = float(out.split("quantile = ")[1].split("\n")[0])
    se = float(out.split("quantile_stderr = ")[1].split("\n")[0])
    assert abs(v - 0.10536052) < 4.0 * se
    assert "N = 1000000" in out


def test_truth_rejects_undersized_runs(capsys):
    code, _, err = _run(capsys, "truth", "-n", "1000")
    assert code == 1
    assert "truth_n" in err


def test_truth_rejects_counts_past_the_generator_range(capsys, monkeypatch):
    # 2^53 used to start a pass of 2^34 blocks, 2^9999999 to exit 2
    def no_draws(*args):
        raise AssertionError("the truth pass started")

    monkeypatch.setattr(experiments, "_truth_losses", no_draws)
    for count in ("2^53", "2^9999999"):
        code, out, err = _run(capsys, "truth", "-n", count)
        assert code == 1 and "count" in err and out == ""


# ---------------------------------------------------------------- converge


def test_converge_writes_csv_and_diagnostics(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(SMALL_STUDY)
    code, out, err = _run(capsys, "converge", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3  # two samplers, three grid sizes
    assert "rate: N^" in err  # log-log fits land on stderr
    assert "truth (closed-form)" in err


def test_converge_progress_does_not_depend_on_threads(capsys, tmp_path):
    # one line per sampler in config order, each after that sampler's last
    # replication, whether the replications run inline or on a pool
    cfg = tmp_path / "study.cfg"
    cfg.write_text(SMALL_STUDY.replace("mc, owen", "owen, sobol, mc"))
    errs = []
    for threads in ([], ["--threads", "1"], ["--threads", "3"]):
        code, _, err = _run(capsys, "converge", "--config", str(cfg), *threads)
        assert code == 0
        errs.append(err)
    lines = errs[0].splitlines()
    assert lines[0].startswith("truth (closed-form): v=")
    assert lines[1:4] == [
        "rqmc-owen: 5 replication(s) done",
        "qmc-sobol: 1 replication(s) done",
        "mc: 5 replication(s) done",
    ]
    assert "replication" not in "".join(lines[4:])
    assert errs[1] == errs[0] and errs[2] == errs[0]


def test_converge_out_file_and_seed_override(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(SMALL_STUDY)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert _run(capsys, "converge", "--config", str(cfg), "--out", str(out_a))[0] == 0
    assert _run(capsys, "converge", "--config", str(cfg), "--out", str(out_b))[0] == 0
    assert _run(capsys, "converge", "--config", str(cfg), "--seed", "99", "--out", str(out_c))[0] == 0
    assert out_a.read_text() == out_b.read_text()  # reruns are byte-identical
    assert out_a.read_text() != out_c.read_text()
    assert out_a.read_text().startswith(CSV_HEADER)


def test_converge_unwritable_output_is_a_runtime_failure(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(SMALL_STUDY)
    code, _, err = _run(capsys, "converge", "--config", str(cfg), "--out", str(tmp_path / "no" / "dir.csv"))
    assert code == 2
    assert "runtime error" in err


def test_converge_rejects_bad_thread_counts(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(SMALL_STUDY)
    for threads in ("0", "-3"):
        code, out, err = _run(capsys, "converge", "--config", str(cfg), "--threads", threads)
        assert code == 1 and "threads" in err
        assert out == "" and "truth" not in err  # rejected before the study starts


def test_converge_rejects_grid_sizes_past_the_generator_range(capsys, tmp_path):
    # used to fail only when a replication drew, after the truth pass
    cfg = tmp_path / "study.cfg"
    for grid in ("2^8 2^53", "2^8..2^53"):
        cfg.write_text(f"[experiment]\nn_grid = {grid}\ntruth = mc\ntruth_n = 1e6\n[model]\nkind = exp\n")
        code, out, err = _run(capsys, "converge", "--config", str(cfg))
        assert code == 1 and "n_grid" in err
        assert out == "" and "truth" not in err  # rejected before the study starts


def test_converge_explains_a_skipped_rate_fit(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(SMALL_STUDY.replace("2^8..2^10", "2^6..2^7"))
    code, out, err = _run(capsys, "converge", "--config", str(cfg))
    assert code == 0 and out.startswith(CSV_HEADER)
    assert "q_mse: rate fit skipped (fit_rate: need at least 3 grid points, got 2)" in err
    assert "nonpositive" not in err


def test_converge_rejects_unknown_config_keys(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[experiment]\nbudget = 4\n[model]\nkind = exp\n")
    code, _, err = _run(capsys, "converge", "--config", str(cfg))
    assert code == 1
    assert "budget" in err


def test_converge_rejects_fractional_truth_n(capsys, tmp_path):
    # used to load as 1000000, while `truth -n 1000000.7` exits 1
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[experiment]\ntruth = mc\ntruth_n = 1000000.7\n[model]\nkind = exp\n")
    code, out, err = _run(capsys, "converge", "--config", str(cfg))
    assert code == 1 and out == ""
    assert "truth_n" in err and "1000000.7" in err


def test_converge_rejects_overflowing_truth_n(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[experiment]\ntruth = mc\ntruth_n = 1e400\n[model]\nkind = exp\n")
    code, _, err = _run(capsys, "converge", "--config", str(cfg))
    assert code == 1
    # the key heads the message, as for every [experiment] key
    assert err.startswith("error: truth_n: expected an integer")


# ---------------------------------------------------------------- dispatch


def test_unknown_subcommand_and_flags_exit_1(capsys):
    assert _run(capsys, "frobnicate")[0] == 1
    assert _run(capsys, "points", "-d", "2", "-n", "4", "--frob")[0] == 1
    assert _run(capsys, "points", "-d", "2")[0] == 1  # missing required -n


def test_console_entry_point_runs():
    import qmcrisk

    exe = shutil.which("qmcrisk")
    cmd = [exe] if exe else [sys.executable, "-m", "qmcrisk.cli"]
    # the package the tests import, also when only pytest's pythonpath finds it
    src = os.path.dirname(os.path.dirname(qmcrisk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        cmd + ["points", "--sampler", "sobol", "-d", "1", "-n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "0"


def test_cold_start_does_not_import_scipy():
    # a cold `from scipy.stats import qmc` measured 0.9-1.2 s, several times
    # the whole package set-up, so the package must never pull scipy in
    import qmcrisk

    code = (
        "import sys, qmcrisk\n"
        "for name in ('mc', 'qmc-sobol', 'rqmc-owen', 'rqmc-shift'):\n"
        "    qmcrisk.sample_points(name, 1, 15, seed=1)\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(qmcrisk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
