"""Command-line interface.

Subcommands:

* ``points``      generate a point batch and print it as CSV;
* ``verify-net``  check a point file for the (t,m,d)-net property;
* ``estimate``    one-shot quantile/shortfall estimate for a model;
* ``truth``       large-sample pseudorandom reference values;
* ``converge``    replicated convergence study, results as CSV.

Exit codes: 0 on success, 1 on bad flags or config, 2 on runtime failure.
Diagnostics go to standard error; data goes to standard output or --out.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from typing import ContextManager, Optional, Sequence, TextIO

import numpy as np

from .errors import ConfigError
from .experiments import (
    ExperimentConfig,
    TruthSpec,
    load_experiment,
    mc_truth,
    parse_count,
    rate_summary,
    run_convergence,
    sample_losses,
    sample_points,
    sampler_name,
)
from .estimators import check_finite, check_level, risk_estimates
from .lowdisc import NetParams, PointSet, is_net
from .models import SanModel, load_model

_SAMPLER_HELP = (
    "sampler: mc, sobol or qmc-sobol, owen or rqmc-owen, shift or rqmc-shift, in any case (default owen); "
    "owen is nested uniform for the first 2^20 points and a digital shift per 20-digit prefix cell beyond that"
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors raise instead of exiting with 2."""

    def error(self, message: str) -> None:
        raise ConfigError(message)


def _parse_count(raw: str) -> int:
    # argparse replaces a ValueError's message (ConfigError is one) with
    # "invalid _parse_count value", but shows an ArgumentTypeError's
    try:
        return parse_count(raw, "--count")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_text(path: str, flag: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot read {path!r}: {exc}") from None


def _load_model_arg(path: Optional[str]):
    if path is None:
        return SanModel()
    return load_model(_read_text(path, "--config"))


def _output(out: Optional[str]) -> ContextManager[TextIO]:
    """Standard output, left open, or the file ``out`` opened for text."""
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmcrisk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    pp = sub.add_parser("points", help="generate a point batch as CSV", parents=[])
    pp.add_argument("-d", "--dim", type=int, required=True, help="dimension of the points")
    pp.add_argument("-n", "--count", type=_parse_count, required=True, help="number of points")
    pp.add_argument("--sampler", default="owen", help=_SAMPLER_HELP)
    pp.add_argument("--seed", type=int, default=0, help="seed for randomized samplers and mc")
    pp.add_argument("--out", default=None, help="output file (default: stdout)")

    vp = sub.add_parser("verify-net", help="check a point file for the net property")
    vp.add_argument("--file", required=True, help="CSV file, one point per row")
    vp.add_argument("-t", type=int, required=True, help="net quality parameter t")
    vp.add_argument("-m", type=int, required=True, help="log_b of the point count")
    vp.add_argument("-d", "--dim", type=int, required=True, help="dimension")
    vp.add_argument("-b", "--base", type=int, default=2, help="base (default 2)")

    ep = sub.add_parser("estimate", help="one-shot quantile/shortfall estimate")
    ep.add_argument("--config", default=None, help="model config file (default: built-in san-15)")
    ep.add_argument("-n", "--count", type=_parse_count, required=True, help="sample size")
    ep.add_argument("-p", "--level", type=float, default=0.1, help="risk level (default 0.1)")
    ep.add_argument("--sampler", default="owen", help=_SAMPLER_HELP)
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--out", default=None)

    tp = sub.add_parser("truth", help="large-sample pseudorandom reference values")
    tp.add_argument("--config", default=None, help="model config file (default: built-in san-15)")
    tp.add_argument("-n", "--count", type=_parse_count, default=10 ** 8, help="sample size (default 1e8)")
    tp.add_argument("-p", "--level", type=float, default=0.1)
    tp.add_argument("--seed", type=int, default=1)
    tp.add_argument("--out", default=None)

    cp = sub.add_parser("converge", help="replicated convergence study")
    cp.add_argument("--config", default=None, help="experiment config file (default: built-in san-15 study)")
    cp.add_argument("--out", default=None, help="CSV output file (default: stdout)")
    cp.add_argument("--seed", type=int, default=None, help="override the config master seed")
    cp.add_argument("--threads", type=int, default=None, help="worker threads for replications")
    return parser


def _cmd_points(args: argparse.Namespace) -> int:
    if args.dim < 1:
        raise ConfigError(f"--dim: must be >= 1, got {args.dim}")
    pts = sample_points(sampler_name(args.sampler, "--sampler"), args.count, args.dim, seed=args.seed)
    # a handle, not the path: savetxt would gzip a name ending .gz
    with _output(args.out) as fh:
        np.savetxt(fh, pts, fmt="%.17g", delimiter=",")
    return 0


def _cmd_verify_net(args: argparse.Namespace) -> int:
    try:
        data = np.loadtxt(args.file, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"--file: cannot read {args.file!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"--file: not a numeric CSV: {exc}") from None
    ps = PointSet.from_array(data)
    params = NetParams(t=args.t, m=args.m, d=args.dim, b=args.base)
    result = is_net(ps, params)
    if result.ok:
        print(f"PASS: (t={args.t}, m={args.m}, d={args.dim})-net in base {args.base}")
    else:
        w = result.witness
        print(
            f"FAIL: elementary interval shape {w.shape} cell {w.cell} "
            f"holds {w.count} points, expected {w.expected}"
        )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    check_level(args.level)
    model = _load_model_arg(args.config)
    losses = check_finite(sample_losses(model, sampler_name(args.sampler, "--sampler"), args.count, seed=args.seed))
    v, c = risk_estimates(losses, args.level)
    _emit(
        f"sampler = {args.sampler}\nN = {args.count}\np = {args.level:g}\n"
        f"quantile = {v:.9g}\nshortfall = {c:.9g}\n",
        args.out,
    )
    return 0


def _cmd_truth(args: argparse.Namespace) -> int:
    model = _load_model_arg(args.config)
    result = mc_truth(
        model,
        args.level,
        args.count,
        seed=args.seed,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    _emit(
        f"N = {result.n}\np = {args.level:g}\n"
        f"quantile = {result.v:.9g}\nquantile_stderr = {result.v_stderr:.3g}\n"
        f"shortfall = {result.c:.9g}\nshortfall_stderr = {result.c_stderr:.3g}\n",
        args.out,
    )
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    if args.config is None:
        cfg = ExperimentConfig(model=SanModel(), truth=TruthSpec("mc"))
    else:
        cfg = load_experiment(_read_text(args.config, "--config"))
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    table = run_convergence(cfg, threads=args.threads, progress=lambda m: print(m, file=sys.stderr))
    _emit(table.to_csv(), args.out)
    # diagnostics: convergence orders; qmc-sobol rows hold squared error of
    # a single deterministic run, so the same fit applies
    for metric in ("q_mse", "es_mse"):
        try:
            for name, fit in rate_summary(table, metric).items():
                note = f" (excluded N: {', '.join(map(str, fit.excluded))})" if fit.excluded else ""
                print(f"{name} {metric} rate: N^{fit.slope:.3f}{note}", file=sys.stderr)
        except ConfigError as exc:
            print(f"{metric}: rate fit skipped ({exc})", file=sys.stderr)
    return 0


_COMMANDS = {
    "points": _cmd_points,
    "verify-net": _cmd_verify_net,
    "estimate": _cmd_estimate,
    "truth": _cmd_truth,
    "converge": _cmd_converge,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
