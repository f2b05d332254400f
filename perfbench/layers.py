"""Which calls a traced run times, and how spans become per-layer metrics.

Each entry of PATCHES names a module attribute through which one layer of
``stablespline`` calls another, and the metric its spans count toward.  A
patched attribute changes only the calls made through that name, so
``stablespline.gibbs.posterior_moments`` times the sweep's g moments and not
the SS-ML posterior mean, which calls its own copy.
"""

from __future__ import annotations

import importlib

from tracing import Tracer, mark_nonfinite_failed, record_file_size, roots, self_times

# Spans that stand for one whole operation of a workload.
OP_SPANS = ("op", "cli.identify")

PATCHES = [
    # one Monte Carlo run, as run_experiment calls it
    ("stablespline.benchmark", "_single_run", "op", None),
    ("stablespline.benchmark", "generate_system", "benchmark.datagen", None),
    ("stablespline.benchmark", "impulse_response", "benchmark.datagen", None),
    ("stablespline.benchmark", "generate_input", "benchmark.datagen", None),
    ("stablespline.benchmark", "sample_noise_mixture", "benchmark.datagen", None),
    ("stablespline.benchmark", "build_regressor", "model.build_regressor", None),
    ("stablespline.benchmark", "run_ssml", "ssml.run_ssml", None),
    ("stablespline.benchmark", "run_gibbs", "gibbs.run_gibbs", None),
    ("stablespline.cli", "run_ssml", "ssml.run_ssml", None),
    ("stablespline.ssml", "build_regressor", "model.build_regressor", None),
    ("stablespline.ssml", "estimate_sigma2", "ssml.estimate_sigma2", None),
    ("stablespline.ssml", "optimize_hyperparams", "ssml.optimize_hyperparams", None),
    ("stablespline.ssml", "neg_log_marglik", "ssml.neg_log_marglik", mark_nonfinite_failed),
    ("stablespline.ssml", "posterior_mean", "ssml.posterior_mean", None),
    ("stablespline.ssml", "kernel_factor", "kernels.kernel_factor", None),
    ("stablespline.gibbs", "build_regressor", "model.build_regressor", None),
    ("stablespline.gibbs", "kernel_factor", "kernels.kernel_factor", None),
    ("stablespline.gibbs", "sample_gig_half", "gibbs.tau_draw", None),
    ("stablespline.gibbs", "sample_gamma", "gibbs.lambda_draw", None),
    ("stablespline.gibbs", "posterior_moments", "gibbs.g_moments", None),
    ("stablespline.gibbs", "sample_mvn", "gibbs.g_sample", None),
    ("stablespline.gibbs", "quantile_diagnostics", "gibbs.quantile_diagnostics", None),
    ("stablespline.cli", "read_dataset", "fileio.read", record_file_size),
    ("stablespline.cli", "read_document", "fileio.read", record_file_size),
    ("stablespline.cli", "write_document", "fileio.write", record_file_size),
    # the Monte Carlo workloads write their runs CSV and summary through these
    ("stablespline.fileio", "write_runs_csv", "fileio.write", record_file_size),
    ("stablespline.fileio", "write_document", "fileio.write", record_file_size),
]

SPAN_METRICS = sorted({name for _, _, name, _ in PATCHES if name not in OP_SPANS})

# Self time: the span minus its child spans.
SELF_METRICS = {
    "gibbs.self_s": "gibbs.run_gibbs",
    "cli.identify_self_s": "cli.identify",
}


def install() -> Tracer:
    tracer = Tracer()
    for module, attr, name, after in PATCHES:
        tracer.patch(importlib.import_module(module), attr, name, after)
    return tracer


def metric_units() -> dict[str, str]:
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update({k: "s" for k in SELF_METRICS})
    units.update({
        "ssml.marglik_failed": "count",
        "gibbs.sweeps": "count",
        "fileio.bytes_read": "B",
        "fileio.bytes_written": "B",
    })
    return units


def layer_metrics(spans) -> dict[str, float]:
    """Per completed operation: time and calls in each layer, self times,
    failed marginal-likelihood evaluations, sweeps and file bytes.

    Spans inside an operation that failed are left out; spans outside every
    operation (the Monte Carlo writers) are shared among the completed ones.
    """
    root_of = roots(spans)
    own = self_times(spans)
    kept = [i for i, r in enumerate(root_of) if not spans[r].failed]
    n_ops = sum(1 for i in kept if spans[i].parent is None and spans[i].name in OP_SPANS)
    total = dict.fromkeys(metric_units(), 0.0)
    for i in kept:
        s = spans[i]
        if s.name in SPAN_METRICS:
            total[f"{s.name}_s"] += s.end - s.start
            total[f"{s.name}_calls"] += 1
        for metric, span_name in SELF_METRICS.items():
            if s.name == span_name:
                total[metric] += own[i]
        if s.name == "ssml.neg_log_marglik" and s.failed:
            total["ssml.marglik_failed"] += 1
        if s.name == "fileio.read":
            total["fileio.bytes_read"] += s.nbytes
        if s.name == "fileio.write":
            total["fileio.bytes_written"] += s.nbytes
    total["gibbs.sweeps"] = total["gibbs.g_sample_calls"]
    return {k: (v / n_ops if n_ops else 0.0) for k, v in total.items()}
