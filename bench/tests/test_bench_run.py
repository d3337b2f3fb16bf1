"""bench/run.py: metric tables, the operation loop and its failure paths."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qmcrisk
import run
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(run.__file__).resolve().parent


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def fake_workload(outputs, problems=()):
    """A workload whose successive operations return ``outputs`` in turn."""
    it = iter(outputs)

    def op(q, cfg):
        value = next(it)
        if isinstance(value, Exception):
            raise value
        return {"v": value}

    return Workload(
        "fake",
        lambda seed, nproc: {"seed": seed},
        op,
        lambda cfg: 1000,
        lambda q, cfg, out: list(problems),
        lambda out: repr(out["v"]),
    )


def test_failed_and_raising_operations_are_recorded():
    w = fake_workload([1.0, RuntimeError("boom")])
    ok = run.run_op(None, w, {}, None)
    raised = run.run_op(None, w, {}, None)
    assert ok["ok"] and ok["fingerprint"] == "1.0"
    assert not raised["ok"] and raised["problems"] == ["raised"]
    bad = run.run_op(None, fake_workload([1.0], problems=["v is off"]), {}, None)
    assert not bad["ok"] and bad["problems"] == ["v is off"]


def test_repeats_that_differ_from_the_first_output_fail():
    ops = [{"ok": True, "fingerprint": f, "problems": []} for f in ("a", "a", "b", None)]
    ops[3]["ok"] = False
    run.mark_changed_repeats(ops)
    assert [op["ok"] for op in ops] == [True, True, False, False]
    assert ops[2]["problems"] == ["output differs from the first operation's"]
    assert ops[3]["problems"] == []


def test_runs_stop_after_the_time_is_up_and_traced_runs_hold_both_kinds():
    ops, tracer, setup = run.run_ops(qmcrisk, fake_workload([1.0] * 10), {}, 0.0, trace=False)
    assert len(ops) == run.MIN_OPS and tracer is None and setup == []
    ops, tracer, setup = run.run_ops(qmcrisk, fake_workload([1.0] * 10), {}, 0.0, trace=True)
    assert [op["traced"] for op in ops] == [False, True]
    assert all(op["ok"] for op in ops)
    assert tracer.spans == []


def test_setup_probes_are_spread_over_the_run():
    started = []  # one entry per operation begun
    fake = fake_workload([1.0] * 10)
    w = dataclasses.replace(fake, run=lambda q, cfg: started.append(1) or fake.run(q, cfg))
    seen = []  # operations begun before each probe

    def probe():
        seen.append(len(started))
        return 0.1

    _, _, setup = run.run_ops(qmcrisk, w, {}, 0.0, trace=False, probe=probe)
    after = run.SETUP_PROBES - run.SETUP_EDGE - 1
    assert seen == [0] * run.SETUP_EDGE + [1] + [2] * after
    assert setup == [0.1] * run.SETUP_PROBES


def test_points_per_s_counts_failed_operations_as_zero_and_setup_is_the_fastest_probe():
    ops = [
        {"wall_s": 2.0, "ok": True},
        {"wall_s": 1.0, "ok": False},
        {"wall_s": 4.0, "ok": True},
    ]
    m = run.end_to_end(ops, useful=1000, setup=[0.3, 0.1, 0.2])
    assert m["points_per_s"] == pytest.approx(250.0)
    assert m["setup_s"] == pytest.approx(0.1)
    assert m["peak_rss_mib"] > 0


def test_exits_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shift-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no qmcrisk package" in done.stderr


@pytest.mark.parametrize("argv", [
    ["--workload", "nope", "--seed", "1", "--seconds", "1"],
    ["--workload", "truth-mc", "--seed", "-1", "--seconds", "1"],
    ["--workload", "truth-mc", "--seed", "1", "--seconds", "0"],
])
def test_bad_arguments_exit_nonzero(argv):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code != 0
