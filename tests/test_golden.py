"""Golden output: SHA-256 hashes of generator, randomization and CLI bytes.

A refactor of the Sobol' generator, the scrambles, the sampler dispatch,
the model evaluation or the truth oracle must leave every output below bit for bit unchanged.  A hash mismatch here
means the change altered results; if that is intended, it is a stated
output change and the hash is updated with it.
"""

import hashlib

import numpy as np
import pytest

from qmcrisk.cli import main
import qmcrisk.experiments as experiments
from qmcrisk.experiments import SAMPLERS, mc_truth, sample_losses, sample_points
from qmcrisk.lowdisc import _tile_rows, sobol_points
from qmcrisk.models import ExpModel, SanModel
from qmcrisk.randomize import digital_shift, owen_scramble

STUDY = """
[experiment]
samplers = mc, sobol, owen, shift
n_grid = 2^6..2^9
replications = 4
master_seed = 7

[model]
kind = exp
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(a) -> str:
    return _sha(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_sobol_points_golden():
    got = _array_sha(sobol_points(2**12, 64).points)
    assert got == "4a445a6d0faf5d269359f543283a13eee411399386761a86b68ac64837f80713"


@pytest.mark.parametrize(
    "seed, owen, shift",
    [
        (
            1,
            "1177950ee0a309a0298f5ef311ea57474597e01cfa6baf95c4c2635253c29027",
            "41c081e099fed9ffb78a99c243919baa5991e3b9494468c6097db0dc08dffa56",
        ),
        (
            2,
            "a80d8abd18497c5ee9fb0905c1d2af1e5141e6bafe693329d50deb511d75569c",
            "8e33066fa27ea46dc748ed73be722c077f1779afc84658852a9e6ba851629231",
        ),
    ],
)
def test_randomization_golden(seed, owen, shift):
    base = sobol_points(2**10, 15)
    assert _array_sha(owen_scramble(base, seed).points) == owen
    assert _array_sha(digital_shift(base, seed).points) == shift


def test_randomized_draws_golden():
    # rqmc-owen and rqmc-shift draws at both ends of the seed range, from one
    # point to past 2^17: Owen flip tables of 2, 9, 10, 13 and 15 digits and
    # ragged walk tiles.  The digest may change only with a change that
    # states an output change; a speed-up of either scramble leaves it as
    # it is
    digest = hashlib.sha256()
    for sampler in ("rqmc-owen", "rqmc-shift"):
        for d in (1, 2, 15, 64):
            for n in (1, 2, 3, 4095, 4097, (1 << 17) + 3):
                n = n if n * d <= 1 << 21 else (1 << 15) + 3
                for seed in (0, 2**64 - 1):
                    digest.update(sample_points(sampler, n, d, seed=seed))
    assert digest.hexdigest() == "b07688eaf88ab9d1ddc6d12ea656d9df518b04e943cd922881f6e011f11ab9db"


def test_converge_csv_golden(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY)
    out = _stdout(capsys, "converge", "--config", str(cfg))
    assert _sha(out.encode()) == "a149f3bc4c5d2beec4c4417a632523719732c16b1295bc541650f3e15da9c8db"


@pytest.mark.parametrize(
    "model, digest",
    [
        ("san-15", "7ce314aa365ddeec91812c4a8387dad5fbfcae81b99fb767f6d75db731c835c2"),
        ("exp", "76ff1a1b72b5adf3ae27eaa218e3d9acc110fc431fd778992d42ee7de7619581"),
    ],
)
def test_truth_stdout_golden(capsys, tmp_path, model, digest):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"kind = {model}\n")
    out = _stdout(capsys, "truth", "--config", str(cfg), "-n", "1e6", "--seed", "2")
    assert _sha(out.encode()) == digest


@pytest.mark.parametrize(
    "sampler, digest",
    [
        ("owen", "47d11220f73a372a2b423f0faa060a23fa0f6ca35c37bf16a5f96d7798c74653"),
        ("mc", "6ecd15a652966d75e65b6f4b36187045743da1ec3aad21766af00991725bcb83"),
    ],
)
def test_estimate_stdout_golden(capsys, sampler, digest):
    out = _stdout(capsys, "estimate", "-n", "2^10", "--sampler", sampler, "--seed", "3")
    assert _sha(out.encode()) == digest


def test_loss_draws_golden():
    # mc points, every sampler's losses on both models and an evaluate of a
    # fixed block, at n of one point, one tile -1 and +1, and three tiles
    # +5, at both ends of the seed range
    digest = hashlib.sha256()
    for model in (SanModel(), ExpModel(rate=2.0)):
        tile = _tile_rows(model.dim)
        for n in (1, tile - 1, tile + 1, 3 * tile + 5):
            for seed in (0, 2**64 - 1):
                digest.update(sample_points("mc", n, model.dim, seed=seed, replication=3))
                for sampler in SAMPLERS:
                    digest.update(sample_losses(model, sampler, n, seed=seed, replication=3))
            block = np.random.Generator(np.random.PCG64(n)).random((n, model.dim))
            digest.update(model.evaluate(block))
    assert digest.hexdigest() == "458c4b7d352eccb4d4975f9816758d4a22bc641af42863c989b5d6f4ae1b0c13"


def test_points_stdout_golden(capsys):
    # `points` CSV of all four samplers at one point, one tile -1 and +1,
    # and three tiles +5, at both ends of the seed range; the digest was
    # recorded from the per-row string writer that savetxt replaced
    digest = hashlib.sha256()
    for sampler in ("mc", "sobol", "owen", "shift"):
        for d in (1, 2, 15, 64):
            tile = _tile_rows(d)
            for n in (1, tile - 1, tile + 1, 3 * tile + 5):
                for seed in (0, 2**64 - 1):
                    argv = ("points", "--sampler", sampler, "-d", str(d), "-n", str(n), "--seed", str(seed))
                    digest.update(_stdout(capsys, *argv).encode())
    assert digest.hexdigest() == "8cd569011208a189aac182d3b29d6225ad8cc7f219977c77c0d52843ee772ca2"


@pytest.mark.parametrize("name", ["pts.csv", "pts.csv.gz"])
def test_points_out_file_holds_the_stdout_bytes(capsys, tmp_path, name):
    # the CLI opens --out itself, so a name ending .gz is plain text too
    argv = ("points", "--sampler", "owen", "-d", "3", "-n", "2^10", "--seed", "5")
    target = tmp_path / name
    assert _stdout(capsys, *argv, "--out", str(target)) == ""
    assert target.read_bytes() == _stdout(capsys, *argv).encode()


def test_mc_truth_bits_golden(monkeypatch):
    # every bit of (v, c, v_stderr, c_stderr) of the truth pass, on both
    # models at two levels and three seeds, and for a replay on each side of
    # a zero-width bracket (seeds 0 and 1 miss it above and below); the
    # 9-digit `truth` stdout above cannot see a roundoff move in c
    n = 10**6 + 12345
    digest = hashlib.sha256()
    for model in (SanModel(), ExpModel()):
        for seed in (0, 1, 7):
            for p in (0.02, 0.1):
                t = mc_truth(model, p, n, seed=seed)
                digest.update(repr((t.v, t.c, t.v_stderr, t.c_stderr)).encode())
    monkeypatch.setattr(experiments, "_BRACKET_SIGMAS", 0.0)
    for seed in (0, 1):
        t = mc_truth(ExpModel(), 0.1, n, seed=seed)
        digest.update(repr((t.v, t.c, t.v_stderr, t.c_stderr)).encode())
    assert digest.hexdigest() == "1fdf3acc1a796e43b5c4c1e4a256499523a01aa8e440fc08946ed7f89341bf61"
