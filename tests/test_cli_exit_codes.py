"""The exit-code contract of ``identify``, ``simulate`` and ``benchmark``
as a property.

Whatever finite data it is given, ``identify`` exits 0 with a finite result
document or 3 with one numeric-failure line, and 2 (a configuration error)
only when N <= n; no numpy ``RuntimeWarning`` escapes.  The data are white
noise, constant, impulse, step or sparse signals at scales from 1e-300 to
1e300, and quiet white noise whose last sample u(N) is largest.  ``main``
runs in-process, so an uncaught exception, which would print a traceback,
fails the test, and the warnings are recorded here, since pytest captures
them before they reach stderr.  ``benchmark`` keeps the same contract.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stablespline.cli import ESTIMATORS, main
from stablespline.fileio import write_dataset

KINDS = ("wn", "const", "impulse", "step", "sparse")


def _signal(kind: str, N: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "wn":
        return rng.standard_normal(N)
    if kind == "const":
        return np.ones(N)
    x = np.zeros(N)
    if kind == "impulse":
        x[0] = 1.0
    elif kind == "step":
        x[N // 2 :] = 1.0
    else:
        idx = rng.choice(N, max(1, N // 10), replace=False)
        x[idx] = rng.standard_normal(idx.size)
    return x


def _run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of ``main``; a RuntimeWarning fails the test."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    return code, err.getvalue()


def _finite(node) -> bool:
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


def _repro(u_scale: str, y_scale: str, kernel: str):
    # u, y = default_rng(0).standard_normal(100), drawn in that order
    return example(
        kinds=("wn", "wn"), scales=(u_scale, y_scale), N=100, n=10, seed=0,
        kernel=kernel, estimator="ssml",
    )


def _identify(u, y, n: int, kernel: str, estimator: str) -> tuple[int, str]:
    """(exit code, stderr) of ``identify`` on (u, y), checked against the
    contract."""
    N = u.size
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp, "data.csv"), Path(tmp, "result.json")
        write_dataset(data, u, y)
        code, err = _run([
            "identify", "--input", str(data), "--output", str(out), "--n", str(n),
            "--kernel", kernel, "--estimator", estimator,
            "--iters", "60", "--burnin", "20",
        ])
        # finite data of N > n samples is no configuration error
        assert code == 2 if N <= n else code in (0, 3), err
        assert "Traceback" not in err
        if code == 0:
            assert _finite(json.loads(out.read_text()))
        else:
            assert err.startswith("error:" if code == 2 else "numeric failure:"), err
            assert err.count("\n") == 1, err
            assert not out.exists()
    return code, err


@settings(
    max_examples=200, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    scales=st.tuples(*[st.integers(-300, 300).map(lambda e: f"1e{e}")] * 2),
    N=st.integers(1, 160),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    kernel=st.sampled_from(["first", "second"]),
    estimator=st.sampled_from(ESTIMATORS),
)
@_repro("1", "1e-155", "first")
@_repro("1", "1e-155", "second")
@_repro("1", "1e-160", "first")
@_repro("1", "1e150", "first")
@_repro("1", "1e150", "second")
@_repro("1e-150", "1", "second")
@_repro("1e-60", "1e95", "first")
# lambda overflows when mapped back to data units: from the fit, and from
# the chain, with its tau draws
@example(
    kinds=("wn", "wn"), scales=("1e-49", "1e102"), N=2, n=1, seed=2,
    kernel="second", estimator="ssml",
)
@example(
    kinds=("const", "const"), scales=("1e0", "1e151"), N=3, n=2, seed=0,
    kernel="second", estimator="ssgs",
)
def test_identify_exit_code_contract(kinds, scales, N, n, seed, kernel, estimator):
    rng = np.random.default_rng(seed)
    u, y = (_signal(kind, N, rng) * float(scale) for kind, scale in zip(kinds, scales))
    _identify(u, y, n, kernel, estimator)


@pytest.mark.parametrize("kernel", ["first", "second"])
@pytest.mark.parametrize(
    "quiet, last, code",
    [(1e-150, 0.75, 0), (1e-155, 0.75, 3), (1e-300, 1e300, 3)],
)
def test_identify_scale_ignores_last_input_sample(quiet, last, code, kernel):
    # u(N) enters no row of the regressor, so the fit's scale comes from
    # u(1..N-1): the first case fits, and the other two stop at the unit
    # check before the fit.  Scaling u itself by that exponent would
    # overflow u(N) = 1e300.
    u, y = np.random.default_rng(0).standard_normal(200).reshape(2, 100)
    u *= quiet
    u[-1] = last
    got, err = _identify(u, y, 10, kernel, "ssml")
    assert got == code, err
    if code == 3:
        assert "data units out of range: max|u(1..N-1)|" in err, err


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(
    N=st.integers(1, 160),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    input_kind=st.sampled_from(["wn", "lp"]),
)
def test_simulate_exit_code_contract(N, n, seed, input_kind):
    with tempfile.TemporaryDirectory() as tmp:
        data, truth = Path(tmp, "data.csv"), Path(tmp, "truth.json")
        code, err = _run([
            "simulate", "--N", str(N), "--n", str(n), "--seed", str(seed),
            "--input-kind", input_kind, "--output", str(data), "--truth", str(truth),
        ])
        assert code == 2 if N <= n else code in (0, 3), err
        if code == 0:
            assert _finite(json.loads(truth.read_text()))
        else:
            assert not truth.exists()


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    runs=st.integers(1, 3),
    N=st.integers(1, 120),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    input_kind=st.sampled_from(["wn", "lp"]),
    kernel=st.sampled_from(["first", "second"]),
    c1=st.sampled_from(["0", "0.7", "1"]),
)
def test_benchmark_exit_code_contract(runs, N, n, seed, input_kind, kernel, c1):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "runs.csv")
        summary = out.with_suffix(".summary.json")
        code, err = _run([
            "benchmark", "--runs", str(runs), "--N", str(N), "--n", str(n),
            "--seed", str(seed), "--input-kind", input_kind, "--kernel", kernel,
            "--c1", c1, "--iters", "60", "--burnin", "20", "--quiet",
            "--output", str(out),
        ])
        assert code == 2 if N <= n else code in (0, 3), err
        assert "Traceback" not in err
        if code == 0:
            assert _finite(json.loads(summary.read_text()))
        else:
            assert err.count("\n") == 1, err
            assert not summary.exists()
