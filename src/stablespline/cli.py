"""Command-line interface: identify, simulate, benchmark.

Exit codes: 0 success, 2 input/configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import ExperimentConfig, run_experiment, simulate
from .distributions import RngHandle
from .errors import ConfigError, NumericError
from .fileio import (
    SCHEMA_VERSION,
    read_dataset,
    read_document,
    write_dataset,
    write_document,
    write_runs_csv,
)
from .gibbs import DIAG_MIN_SAMPLES, GibbsConfig, quantile_diagnostics, run_gibbs
from .kernels import KernelOrder
from .model import check_array, fit_score
from .ssml import run_ssml

ESTIMATORS = ("ssml", "ssgs", "both")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=50, help="impulse response length (default 50)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_kernel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", choices=["first", "second"], default="first",
                   help="stable spline kernel order (default first)")


def _add_gibbs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iters", type=int, default=1500, metavar="M",
                   help="total Gibbs sweeps (default 1500)")
    p.add_argument("--burnin", type=int, default=500, metavar="M0",
                   help="burn-in sweeps to discard (default 500)")
    p.add_argument("--gamma-rate-convention", choices=["half", "literal"],
                   default="half",
                   help="rate convention of the lambda conditional (default half)")


def _add_experiment(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, default=500, help="number of samples (default 500)")
    p.add_argument("--input-kind", choices=["wn", "lp"], default="wn",
                   help="white noise or low-pass input (default wn)")
    p.add_argument("--c1", type=float, default=0.7,
                   help="probability of the nominal noise component (default 0.7)")
    p.add_argument("--variance-ratio", type=float, default=100.0,
                   help="outlier/nominal variance ratio (default 100)")
    p.add_argument("--snr-divisor", type=float, default=100.0,
                   help="sigma2 = var(noiseless output) / divisor (default 100)")


@functools.cache  # one parser per process: parse_args only reads it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablespline",
        description="Outlier-robust FIR identification with stable spline priors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="estimate an impulse response from a dataset file")
    p_id.set_defaults(run=cmd_identify)
    p_id.add_argument("--input", required=True, help="dataset file (t,u,y)")
    p_id.add_argument("--truth", help="truth document for FIT scoring (optional)")
    p_id.add_argument("--output", required=True, help="result document to write")
    p_id.add_argument("--estimator", choices=ESTIMATORS, default="both")
    _add_common(p_id)
    _add_kernel(p_id)
    _add_gibbs(p_id)

    p_sim = sub.add_parser("simulate", help="generate a random dataset and its truth document")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--output", required=True, help="dataset file to write")
    p_sim.add_argument("--truth", required=True, help="truth document to write")
    _add_common(p_sim)
    _add_experiment(p_sim)

    p_bm = sub.add_parser("benchmark", help="run the Monte Carlo comparison")
    p_bm.set_defaults(run=cmd_benchmark)
    p_bm.add_argument("--output", required=True, help="per-run results CSV to write")
    p_bm.add_argument("--runs", type=int, default=20, help="Monte Carlo runs (default 20)")
    p_bm.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")
    _add_common(p_bm)
    _add_kernel(p_bm)
    _add_gibbs(p_bm)
    _add_experiment(p_bm)

    return parser


def cmd_identify(args) -> int:
    dataset = read_dataset(args.input)
    if dataset.N <= args.n:
        raise ConfigError(f"need N > n, got N={dataset.N}, n={args.n}")
    order = KernelOrder.parse(args.kernel)

    truth_g = None
    if args.truth:
        truth_doc = read_document(args.truth)
        try:
            truth_g = np.asarray(truth_doc.get("impulse_response", []), dtype=float)
        except (AttributeError, TypeError, ValueError):
            raise ConfigError(
                f"{args.truth}: not a truth document with a numeric impulse_response"
            ) from None
        check_array(f"{args.truth}: truth response", truth_g, (args.n,))

    sampling = args.estimator in ("ssgs", "both")
    if sampling:
        cfg = GibbsConfig(
            M=args.iters,
            M0=args.burnin,
            rate_convention=args.gamma_rate_convention,
        )
        rng = RngHandle(args.seed)

    ssml = run_ssml(dataset, args.n, order)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "identification_result",
        "config": {
            "estimator": args.estimator,
            "n": args.n,
            "kernel": order.value,
            "iters": args.iters,
            "burnin": args.burnin,
            "seed": args.seed,
            "gamma_rate_convention": args.gamma_rate_convention,
            "input": str(args.input),
        },
        "hyperparameters": {
            "lambda": ssml.hyper.lam,
            "beta": ssml.hyper.beta,
            "sigma2": ssml.hyper.sigma2,
        },
    }
    fit = {}
    if args.estimator in ("ssml", "both"):
        doc["ssml"] = {
            "g_hat": ssml.g_hat,
            "objective": ssml.objective,
        }
        if truth_g is not None:
            fit["ssml"] = fit_score(truth_g, ssml.g_hat)
    if sampling:
        g_gs, chain = run_gibbs(dataset, cfg, ssml, rng)
        enough = chain.post_burn_in().shape[0] >= DIAG_MIN_SAMPLES
        diag = quantile_diagnostics(chain) if enough else None
        doc["ssgs"] = {
            "g_hat": g_gs,
            "iters": args.iters,
            "burnin": args.burnin,
            "diagnostics": None
            if diag is None
            else {
                "flagged_count": diag.flagged_count,
                "max_normalized_discrepancy": float(diag.discrepancy.max()),
                "threshold": diag.threshold,
            },
        }
        if truth_g is not None:
            fit["ssgs"] = fit_score(truth_g, g_gs)
    if fit:
        doc["fit"] = fit
    write_document(args.output, doc)
    return 0


def cmd_simulate(args) -> int:
    config = ExperimentConfig(
        N=args.N,
        input_kind=args.input_kind,
        n=args.n,
        c1=args.c1,
        variance_ratio=args.variance_ratio,
        snr_divisor=args.snr_divisor,
    )
    sim = simulate(config, RngHandle(args.seed))
    tf = sim.system
    write_dataset(args.output, sim.dataset.u, sim.dataset.y)
    write_document(
        args.truth,
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "simulation_truth",
            "config": {
                "N": args.N,
                "n": args.n,
                "input_kind": config.input_kind.value,
                "c1": args.c1,
                "variance_ratio": args.variance_ratio,
                "snr_divisor": args.snr_divisor,
                "seed": args.seed,
            },
            "sigma2_true": sim.sigma2,
            "outlier_count": int(sim.outliers.sum()),
            "outlier_indices": [int(i) + 1 for i in np.flatnonzero(sim.outliers)],
            "impulse_response": sim.g_true,
            "system": {
                "gain": tf.gain,
                "delay": 1,
                "poles_re": tf.poles.real,
                "poles_im": tf.poles.imag,
                "zeros_re": tf.zeros.real,
                "zeros_im": tf.zeros.imag,
            },
        },
    )
    return 0


def cmd_benchmark(args) -> int:
    config = ExperimentConfig(
        runs=args.runs,
        N=args.N,
        input_kind=args.input_kind,
        n=args.n,
        c1=args.c1,
        variance_ratio=args.variance_ratio,
        snr_divisor=args.snr_divisor,
        order=args.kernel,
        gibbs=GibbsConfig(
            M=args.iters,
            M0=args.burnin,
            rate_convention=args.gamma_rate_convention,
        ),
        master_seed=args.seed,
    )

    def progress(i, result):
        if args.quiet:
            return
        if result is None:
            print(f"run {i}: FAILED", file=sys.stderr)
        else:
            print(
                f"run {i}: fit_ssml={result.fit_ssml:.2f} fit_ssgs={result.fit_ssgs:.2f}",
                file=sys.stderr,
            )

    results, summary = run_experiment(config, progress=progress)
    write_runs_csv(args.output, results)
    summary_path = Path(args.output).with_suffix(".summary.json")
    write_document(
        summary_path,
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "benchmark_summary",
            "config": {
                "runs": config.runs,
                "N": config.N,
                "input_kind": config.input_kind.value,
                "n": config.n,
                "c1": config.c1,
                "c2": config.c2,
                "variance_ratio": config.variance_ratio,
                "snr_divisor": config.snr_divisor,
                "kernel": config.order.value,
                "iters": config.gibbs.M,
                "burnin": config.gibbs.M0,
                "gamma_rate_convention": config.gibbs.rate_convention,
                "seed": config.master_seed,
            },
            **summary,
        },
    )
    if not args.quiet:
        print(f"summary written to {summary_path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
