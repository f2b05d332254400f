"""The contract of the package surface, over every callable of
``stablespline.__all__``: a malformed argument raises a ConfigError that
names it; a valid argument whose result cannot be represented raises a
NumericError under the function's own name; any other call returns finite
values; and no other exception class and no RuntimeWarning escapes.

Each entry has a table of valid arguments (the n=5, N=20 problem, M=20
sweeps and one in-process Monte Carlo run) and the kind of each argument
it checks.  A kind names its malformed variants and its valid extremes;
one test item is one (entry, argument, variant), and hypothesis draws the
element of the argument that the variant changes and the value put there,
seeded from the item's id, so every checkout draws the same values.
"""

import dataclasses
import re
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import stablespline
from stablespline import (
    ConfigError,
    Dataset,
    ExperimentConfig,
    GibbsChain,
    GibbsConfig,
    Hyperparameters,
    KernelSpec,
    NumericError,
    RngHandle,
    RunResult,
    SsmlResult,
    TransferFunction,
)

N, n, M = 20, 5, 20
_rng = np.random.default_rng(0)
U = stablespline.build_regressor(_rng.standard_normal(N), N, n)
Y = _rng.standard_normal(N)
G = 0.8 ** np.arange(1, n + 1)
SPEC = KernelSpec("first", 0.8, n)
DATASET = Dataset(_rng.standard_normal(N), Y)
INIT = SsmlResult(G, Hyperparameters(1.0, 0.8, 0.5), 0.0, "first")
# burn_in=1: quantile_diagnostics reads every row, so each variant lands in a read draw
CHAIN = GibbsChain(_rng.standard_normal((120, n)), np.ones(120), np.ones((12, N)), burn_in=1)
TF = TransferFunction(zeros=np.array([0.5, -0.3]), poles=np.array([0.3, 0.6]), gain=1.0)
TAU = np.linspace(0.5, 2.0, N)

# kind -> (malformed variants, valid extremes)
KINDS = {
    "array": ({"nan", "inf", "-inf", "ndim"}, {"zero", "negative", "subnormal", "huge"}),
    "pinned": ({"nan", "inf", "-inf", "ndim", "short"}, {"zero", "negative", "subnormal", "huge"}),
    "positive": ({"nan", "inf", "-inf", "zero", "negative", "ndim", "short", "text", "none"},
                 {"subnormal", "huge"}),
    "scalar+": ({"nan", "inf", "-inf", "zero", "negative", "text", "none"}, {"subnormal", "huge"}),
    "scalar0": ({"nan", "inf", "-inf", "negative", "text", "none"}, {"zero", "subnormal", "huge"}),
    "real": ({"nan", "inf", "-inf", "text", "none"}, {"zero", "negative", "subnormal", "huge"}),
    "unit": ({"nan", "inf", "-inf", "negative", "huge", "text"}, {"zero", "subnormal"}),
    "poles": ({"nan", "inf", "-inf", "huge", "ndim"}, {"zero", "subnormal"}),
    "count": ({"nan", "zero", "negative", "fraction"}, set()),
    "count0": ({"nan", "negative", "fraction"}, {"zero"}),
    "list": ({"short"}, set()),
    # a record of the package replaced by something else
    "instance": ({"none", "tuple"}, set()),
    # a record built valid: one of its arrays made extreme
    "record": (set(), {"zero", "negative", "subnormal", "huge"}),
}
RECORD_FIELDS = {Dataset: ("u", "y"), SsmlResult: ("g_hat",), GibbsChain: ("g_samples",)}
# run_gibbs names the step that failed, and the sweep
SWEEP_STEPS = ("gibbs.conditional_tau", "gibbs.conditional_lambda", "gibbs.conditional_g")


def entry(fn, args, checks, contexts=None):
    """``checks`` maps an argument to its kind, or to (kind, the name its
    error uses); ``contexts`` are the NumericError contexts allowed besides
    the function's own."""
    module = fn.__module__.rsplit(".", 1)[-1]
    return {
        "fn": fn,
        "args": args,
        "checks": {a: c if isinstance(c, tuple) else (c, a) for a, c in checks.items()},
        "contexts": {f"{module}.{fn.__name__}", *(contexts or ())},
    }


ss = stablespline
ENTRIES = {
    "Dataset": entry(Dataset, dict(u=DATASET.u, y=Y), {"u": "array", "y": "pinned"}),
    "Hyperparameters": entry(
        Hyperparameters, dict(lam=1.0, beta=0.8, sigma2=0.5),
        {"lam": ("scalar0", "lambda"), "beta": "unit", "sigma2": "scalar+"},
    ),
    "build_regressor": entry(
        ss.build_regressor, dict(u=DATASET.u, N=N, n=n), {"u": "pinned", "N": "count", "n": "count"}
    ),
    "fit_score": entry(ss.fit_score, dict(g_true=G, g_hat=0.9 * G), {"g_true": "array", "g_hat": "pinned"}),
    "KernelSpec": entry(KernelSpec, dict(order="first", beta=0.8, n=n), {"beta": "unit", "n": "count"}),
    "build_kernel": entry(ss.build_kernel, dict(spec=SPEC), {}),
    "kernel_factor": entry(ss.kernel_factor, dict(spec=SPEC), {}),
    "kernel_quadratic_form": entry(ss.kernel_quadratic_form, dict(spec=SPEC, g=G), {"g": "pinned"}),
    "RngHandle": entry(RngHandle, dict(seed=3, stream=2), {"seed": "count0", "stream": "count0"}),
    "sample_noise_mixture": entry(
        ss.sample_noise_mixture, dict(N=N, sigma2=0.5, c1=0.7, variance_ratio=100.0, rng=RngHandle(1)),
        {"N": "count", "sigma2": "scalar+", "c1": "unit", "variance_ratio": "scalar+"},
    ),
    "SsmlResult": entry(
        SsmlResult, dict(g_hat=G, hyper=INIT.hyper, objective=0.0, order="first"),
        {"g_hat": "array", "hyper": "instance", "objective": "real"},
    ),
    "posterior_mean": entry(
        ss.posterior_mean, dict(lam=1.0, spec=SPEC, U=U, y=Y, noise_cov_diag=TAU),
        {"lam": ("scalar0", "lambda"), "U": "pinned", "y": "pinned", "noise_cov_diag": "positive"},
    ),
    "posterior_moments": entry(
        ss.posterior_moments, dict(lam=1.0, Phi=U @ ss.kernel_factor(SPEC), y=Y, noise_cov_diag=TAU),
        {"lam": ("scalar+", "lambda"), "Phi": "array", "y": "pinned", "noise_cov_diag": "positive"},
    ),
    "run_ssml": entry(
        ss.run_ssml, dict(dataset=DATASET, n=n, order="first"), {"dataset": "record", "n": "count"}
    ),
    "GibbsConfig": entry(GibbsConfig, dict(M=M, M0=10), {"M": "count", "M0": "count"}),
    "conditional_tau": entry(
        ss.conditional_tau, dict(g=G, U=U, y=Y, sigma2=0.5, rng=RngHandle(1)),
        {"g": "pinned", "U": "array", "y": "pinned", "sigma2": "scalar+"},
    ),
    "conditional_lambda": entry(ss.conditional_lambda, dict(g=G, spec=SPEC, rng=RngHandle(1)), {"g": "pinned"}),
    "conditional_g": entry(
        ss.conditional_g, dict(lam=1.0, tau=TAU, spec=SPEC, U=U, y=Y, rng=RngHandle(1)),
        {"lam": ("scalar+", "lambda"), "tau": "positive", "U": "pinned", "y": "pinned"},
    ),
    "conditional_g_moments": entry(
        ss.conditional_g_moments, dict(lam=1.0, tau=TAU, spec=SPEC, U=U, y=Y),
        {"lam": ("scalar+", "lambda"), "tau": "positive", "U": "pinned", "y": "pinned"},
    ),
    "run_gibbs": entry(
        ss.run_gibbs, dict(dataset=DATASET, config=GibbsConfig(M=M, M0=10), init=INIT, rng=RngHandle(1)),
        {"dataset": "record", "init": "record"}, SWEEP_STEPS,
    ),
    "quantile_diagnostics": entry(ss.quantile_diagnostics, dict(chain=CHAIN), {"chain": "array"}),
    "TransferFunction": entry(
        TransferFunction, dict(zeros=TF.zeros.real, poles=TF.poles.real, gain=1.0),
        {"zeros": "array", "poles": "poles", "gain": "real"},
    ),
    "ExperimentConfig": entry(
        ExperimentConfig,
        dict(runs=1, N=N, n=n, c1=0.7, variance_ratio=100.0, snr_divisor=100.0,
             gibbs=GibbsConfig(M=M, M0=10), master_seed=0),
        {"runs": "count", "N": "count", "n": "count", "c1": "unit",
         "variance_ratio": "scalar+", "snr_divisor": "scalar+", "master_seed": "count0"},
    ),
    "generate_system": entry(ss.generate_system, dict(rng=RngHandle(1), n=n), {"n": "count"}),
    "impulse_response": entry(ss.impulse_response, dict(tf=TF, n=n), {"n": "count"}),
    "generate_input": entry(ss.generate_input, dict(kind="wn", N=N, rng=RngHandle(1)), {"N": "count"}),
    "run_experiment": entry(
        ss.run_experiment, dict(config=ExperimentConfig(runs=1, N=N, n=n, gibbs=GibbsConfig(M=M, M0=10))), {}
    ),
    "summarize": entry(ss.summarize, dict(results=[RunResult(0, 50.0, 60.0, 0.8, 0.5)]), {"results": "list"}),
}

# Callables of the surface with no entry, and why: the error classes, the
# two enums (their ``parse`` is what the entries above call) and the result
# records that the package returns and no entry validates.
NOT_ENTRIES = {
    "ConfigError", "NumericError", "KernelOrder", "InputKind",
    "GibbsChain", "QuantileReport", "RunResult",
}

CASES = [("valid", name, None) for name in ENTRIES] + [
    (variant, name, arg)
    for name, e in ENTRIES.items()
    for arg, (kind, _) in e["checks"].items()
    for variant in sorted(set.union(*KINDS[kind]))
]


def _variant(variant, base, data):
    """``base`` with one entry (or the whole of a scalar) made ``variant``."""
    if type(base) in RECORD_FIELDS:
        field = data.draw(st.sampled_from(RECORD_FIELDS[type(base)]))
        return dataclasses.replace(base, **{field: _variant(variant, getattr(base, field), data)})
    if variant == "short":
        return base[:-1] if isinstance(base, list) else base[..., :-1]
    if variant == "ndim":
        return base[0] if base.ndim > 1 else base[None]
    if isinstance(base, int) and variant in ("zero", "negative"):  # a count
        return 0 if variant == "zero" else -data.draw(st.integers(1, 10**6))
    value = {
        "nan": lambda: np.nan,
        "inf": lambda: np.inf,
        "-inf": lambda: -np.inf,
        "zero": lambda: 0.0,
        "negative": lambda: -data.draw(st.floats(1e-3, 1e3)),
        "subnormal": lambda: data.draw(st.floats(5e-324, 2.2e-308, allow_subnormal=True)),
        "huge": lambda: data.draw(st.floats(1e300, np.finfo(float).max)),
        "fraction": lambda: base + data.draw(st.floats(0.01, 0.99)),
        "text": lambda: str(base),
        "none": lambda: None,
        "tuple": lambda: dataclasses.astuple(base),
    }[variant]()
    if np.ndim(base) == 0:
        return value
    # text and none: one entry a string of its number, or None
    out = np.array(base, dtype=object if variant in ("text", "none") else float)
    i = data.draw(st.integers(0, out.size - 1))
    out.flat[i] = str(out.flat[i]) if variant == "text" else value
    return out


def _finite(x) -> bool:
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return all(_finite(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_finite(v) for v in x)
    if isinstance(x, (float, np.ndarray, np.floating)):
        return bool(np.isfinite(x).all())
    return True


def test_every_callable_has_an_entry():
    callables = {k for k in stablespline.__all__ if callable(getattr(stablespline, k))}
    assert callables - NOT_ENTRIES == set(ENTRIES)


@pytest.mark.parametrize("variant, name, arg", CASES, ids=[f"{e}-{a}-{v}" for v, e, a in CASES])
def test_contract(variant, name, arg):
    e = ENTRIES[name]

    @seed(zlib.crc32(f"{name}-{arg}-{variant}".encode()))
    @settings(deadline=None, max_examples=3, database=None)
    @given(data=st.data())
    def check(data):
        args = dict(e["args"])
        malformed = False
        if arg is not None:
            kind, label = e["checks"][arg]
            malformed = variant in KINDS[kind][0]
            args[arg] = _variant(variant, args[arg], data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = e["fn"](**args)
            except ConfigError as exc:
                assert malformed, f"valid {arg}={args.get(arg)!r} rejected: {exc}"
                assert re.search(rf"(?<![\w.]){re.escape(label)}(?!\w)", str(exc)), str(exc)
                return
            except NumericError as exc:
                assert not malformed, f"malformed {arg} raised NumericError: {exc}"
                assert exc.context in e["contexts"], exc.context
                return
        assert not malformed, f"malformed {arg}={args[arg]!r} accepted"
        assert _finite(result), f"non-finite result for {arg}={args.get(arg)!r}"

    check()
