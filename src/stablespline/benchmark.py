"""Random-system Monte Carlo harness comparing the two estimators.

Each run draws a random stable transfer function (30 zeros, 30 poles
inside radius 0.95, unit delay), truncates its impulse response at n,
excites it with white or low-pass-filtered noise, corrupts the output
with two-component Gaussian mixture noise, and scores both estimators
with the percent-fit metric.  Runs are seed-isolated: run i consumes the
same sub-streams no matter how many runs the experiment contains.
"""

from __future__ import annotations

import contextlib
import enum
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .distributions import RngHandle, as_generator, sample_noise_mixture
from .errors import ConfigError, NumericError
from .gibbs import GibbsConfig, run_gibbs
from .kernels import KernelOrder
from .model import (
    Dataset, build_regressor, check_array, check_count, check_positive, check_unit, fit_score
)
from .ssml import run_ssml

__all__ = [
    "InputKind",
    "TransferFunction",
    "ExperimentConfig",
    "RunResult",
    "Simulation",
    "generate_system",
    "impulse_response",
    "generate_input",
    "simulate",
    "run_experiment",
    "summarize",
]

POLE_RADIUS = 0.95
POLE_MAG_MIN = 0.4          # avoids trivially short responses
N_PAIRS = 15                # 15 conjugate pairs = 30 roots each
LP_POLE_RANGE = (0.75, 0.95)
MAX_FAILURE_FRACTION = 0.2
RUNS_PER_WORKER = 2         # measured: 2 workers win from 2 runs; workers start at 4


class InputKind(str, enum.Enum):
    WN = "wn"
    LP = "lp"

    @classmethod
    def parse(cls, value) -> "InputKind":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigError(
                f"unknown input kind {value!r} (expected 'wn' or 'lp')"
            ) from None


@dataclass(frozen=True)
class TransferFunction:
    """Rational system G = gain * z^{-1} B(z^{-1}) / A(z^{-1}), with the unit
    delay that the regressor of :func:`stablespline.model.build_regressor`
    encodes.

    Zeros/poles are the roots of B/A; both sets are closed under complex
    conjugation and all poles lie strictly inside radius 0.95.  ``num`` and
    ``den`` are the real coefficients of B and A in ascending powers of
    z^{-1}, expanded once from the roots; all four arrays are read-only.
    """

    zeros: np.ndarray
    poles: np.ndarray
    gain: float
    num: np.ndarray = field(init=False, repr=False, compare=False)
    den: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.array(self.zeros, dtype=complex)
        p = np.array(self.poles, dtype=complex)
        check_array("zeros", np.abs(z))
        check_array("gain", self.gain, ())
        if not np.all(check_array("poles", np.abs(p)) < POLE_RADIUS):
            raise ConfigError(
                f"poles must satisfy |p| < {POLE_RADIUS}, got max {np.max(np.abs(p)):.4f}"
            )
        for roots, name, attr in ((z, "zeros", "num"), (p, "poles", "den")):
            coeffs = np.poly(roots) if roots.size else np.array([1.0])
            if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
                raise ConfigError(f"{name} are not closed under conjugation")
            real = coeffs.real
            real.flags.writeable = False
            object.__setattr__(self, attr, real)
        z.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "poles", p)


def _conjugate_pairs(mags: np.ndarray, angles: np.ndarray) -> np.ndarray:
    roots = mags * np.exp(1j * angles)
    return np.concatenate([roots, np.conj(roots)])


def _filter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-state response y = (B/A) x, with B and A in ascending powers of
    z^{-1} and A monic: the FIR part B x, then the difference equation
    y(t) = (B x)(t) - a_1 y(t-1) - ... - a_p y(t-p).

    This is the one filter of the package: it gives both the impulse
    responses of the generated systems and the low-pass inputs.  The pole
    radius bound of TransferFunction keeps the response of every generated
    system bounded, but the unscaled samples of a stable system can still
    reach 1e7 and more; only a response that overflows is rejected.
    """
    y = np.convolve(x, b)[: len(x)]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for t in range(y.size):
            jmax = min(t, a.size - 1)
            if jmax >= 1:
                y[t] -= a[1 : jmax + 1] @ y[t - 1 :: -1][:jmax]
    # each sample depends only on earlier ones: the first non-finite one is
    # the first sample that overflowed
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise NumericError(
            f"response sample {bad[0] + 1} is not finite before scaling",
            context="benchmark.impulse_response",
        )
    return y


def generate_system(rng, n: int = 50) -> TransferFunction:
    """Draw a random stable system and scale it to a unit-norm response.

    15 conjugate pole pairs (magnitude U(0.4, 0.95), angle U(0, pi)) and
    15 conjugate zero pairs (magnitude U(0, 0.95), angle U(0, pi)); the
    gain normalizes the length-n truncated impulse response to unit
    Euclidean norm.
    """
    n, gen = check_count("n", n), as_generator(rng)
    pole_mags = gen.uniform(POLE_MAG_MIN, POLE_RADIUS, N_PAIRS)
    pole_angles = gen.uniform(0.0, np.pi, N_PAIRS)
    zero_mags = gen.uniform(0.0, POLE_RADIUS, N_PAIRS)
    zero_angles = gen.uniform(0.0, np.pi, N_PAIRS)
    tf = TransferFunction(
        zeros=_conjugate_pairs(zero_mags, zero_angles),
        poles=_conjugate_pairs(pole_mags, pole_angles),
        gain=1.0,
    )
    # response to a unit impulse; B is monic, so h(0) = 1 and |h| >= 1
    h = _filter(tf.num, tf.den, np.eye(1, n)[0])
    return replace(tf, gain=1.0 / float(np.linalg.norm(h)))


def impulse_response(tf: TransferFunction, n: int) -> np.ndarray:
    """First n samples after the unit delay: g(k) = gain * h(k-1), where h
    is the impulse response of B/A.  The finiteness guard of the filter
    applies to the unscaled response."""
    return tf.gain * _filter(tf.num, tf.den, np.eye(1, check_count("n", n))[0])


def generate_input(kind, N: int, rng) -> np.ndarray:
    """White-noise input, or white noise through a random low-pass filter.

    LP: second-order all-pole filter with a double real pole at
    rho ~ U(0.75, 0.95) and unit DC gain.
    """
    N, kind, gen = check_count("N", N), InputKind.parse(kind), as_generator(rng)
    if kind is InputKind.WN:
        return gen.standard_normal(N)
    rho = gen.uniform(*LP_POLE_RANGE)
    e = gen.standard_normal(N)
    return lowpass_filter(e, rho)


def lowpass_filter(e: np.ndarray, rho: float) -> np.ndarray:
    """x(t) = 2 rho x(t-1) - rho^2 x(t-2) + (1-rho)^2 e(t), zero initial state."""
    return _filter(np.array([(1.0 - rho) ** 2]), np.array([1.0, -2.0 * rho, rho**2]), e)


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte Carlo protocol settings (desk-scale defaults)."""

    runs: int = 20
    N: int = 200
    input_kind: InputKind = InputKind.WN
    n: int = 50
    c1: float = 0.7
    variance_ratio: float = 100.0
    snr_divisor: float = 100.0
    order: KernelOrder = KernelOrder.FIRST
    gibbs: GibbsConfig = field(default_factory=GibbsConfig)
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_kind", InputKind.parse(self.input_kind))
        object.__setattr__(self, "order", KernelOrder.parse(self.order))
        check_count("runs", self.runs)
        check_count("master_seed", self.master_seed, 0)
        check_unit("c1", self.c1, closed=True)
        if check_count("N", self.N) <= check_count("n", self.n):
            raise ConfigError(f"need N > n, got N={self.N}, n={self.n}")
        check_positive("ExperimentConfig", "variance_ratio", self.variance_ratio)
        check_positive("ExperimentConfig", "snr_divisor", self.snr_divisor)

    @property
    def c2(self) -> float:
        return 1.0 - self.c1


@dataclass(frozen=True)
class RunResult:
    run_index: int
    fit_ssml: float
    fit_ssgs: float
    sigma2: float           # noise variance used by the estimators
    beta_hat: float
    warnings: tuple = ()


@dataclass(frozen=True)
class Simulation:
    """One dataset of the protocol with its truth: the system, its length-n
    response, the nominal noise variance and the outlier mask of the noise."""

    system: TransferFunction
    g_true: np.ndarray
    sigma2: float
    outliers: np.ndarray
    dataset: Dataset


def simulate(config: ExperimentConfig, handle: RngHandle) -> Simulation:
    """Draw one dataset of the protocol from the lanes of ``handle``.

    The system comes from child 0 and the input from child 1.  The output
    U g is corrupted by mixture noise from child 2, with nominal variance
    sigma2 = var(U g) / snr_divisor.
    """
    tf = generate_system(handle.child(0), n=config.n)
    g_true = impulse_response(tf, config.n)
    u = generate_input(config.input_kind, config.N, handle.child(1))
    y0 = build_regressor(u, config.N, config.n) @ g_true
    var0 = float(np.var(y0))
    if var0 <= 0.0:
        raise NumericError(
            "noiseless output has zero variance", context="benchmark.simulate"
        )
    sigma2 = var0 / config.snr_divisor
    v, outliers = sample_noise_mixture(
        config.N, sigma2, config.c1, config.variance_ratio, handle.child(2)
    )
    return Simulation(tf, g_true, sigma2, outliers, Dataset(u, y0 + v))


def _single_run(config: ExperimentConfig, run_index: int) -> RunResult:
    handle = RngHandle(config.master_seed, stream=run_index)
    sim = simulate(config, handle)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ssml = run_ssml(sim.dataset, config.n, config.order)
        g_gs, _chain = run_gibbs(sim.dataset, config.gibbs, ssml, handle.child(3))

    return RunResult(
        run_index=run_index,
        fit_ssml=fit_score(sim.g_true, ssml.g_hat),
        fit_ssgs=fit_score(sim.g_true, g_gs),
        sigma2=ssml.hyper.sigma2,
        beta_hat=ssml.hyper.beta,
        warnings=tuple(str(w.message) for w in caught),
    )


def _five_number(values: np.ndarray) -> dict:
    q = np.percentile(values, [0, 25, 50, 75, 100])
    return {
        "min": float(q[0]),
        "q1": float(q[1]),
        "median": float(q[2]),
        "q3": float(q[3]),
        "max": float(q[4]),
    }


def summarize(results: list[RunResult]) -> dict:
    """Five-number FIT statistics per estimator plus the pairwise win rate."""
    check_count("len(results)", len(results))
    ssml = np.array([r.fit_ssml for r in results])
    ssgs = np.array([r.fit_ssgs for r in results])
    return {
        "n_completed": len(results),
        "fit_ssml": _five_number(ssml),
        "fit_ssgs": _five_number(ssgs),
        "win_rate_ssgs": float(np.mean(ssgs > ssml)),
    }


def _attempt(config: ExperimentConfig, run_index: int) -> tuple[RunResult | None, str | None]:
    """Run ``run_index`` and return (result, None), or (None, reason) when the
    run fails numerically; both paths of :func:`run_experiment` call this."""
    try:
        return _single_run(config, run_index), None
    except (NumericError, ConfigError, np.linalg.LinAlgError) as exc:
        return None, str(exc)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_env() -> dict:
    """The parent's environment, with one BLAS thread per worker and a path
    to this package: k workers each starting OpenBLAS's default thread pool
    would put 2k threads on k CPUs."""
    path = [str(Path(__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))


def _worker_died(proc, log) -> RuntimeError:
    code = proc.wait()
    log.seek(0)
    lines = log.read().decode(errors="replace").strip().splitlines()
    return RuntimeError(
        f"Monte Carlo worker exited with code {code}: {lines[-1] if lines else '(no output)'}"
    )


def _run_in_workers(config: ExperimentConfig, k: int):
    """Yield :func:`_attempt`'s outcome for every run, in run order, from k
    ``python -m stablespline._worker`` processes.  Each worker gets the
    pickled config once, then one run index at a time whenever it is free.
    No worker outlives the generator."""
    import pickle
    import selectors
    import subprocess
    import tempfile

    procs, logs = [], []
    try:
        with selectors.DefaultSelector() as selector:
            env = _worker_env()
            for _ in range(k):
                logs.append(tempfile.TemporaryFile())
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "stablespline._worker"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=logs[-1], env=env,
                ))
                selector.register(procs[-1].stdout, selectors.EVENT_READ, len(procs) - 1)
            unsent = iter(range(config.runs))

            def feed(w, message):
                try:
                    procs[w].stdin.write(pickle.dumps(message))
                    procs[w].stdin.flush()
                except BrokenPipeError:
                    raise _worker_died(procs[w], logs[w]) from None

            def hand_out(w):
                run_index = next(unsent, None)
                if run_index is None:
                    selector.unregister(procs[w].stdout)
                    procs[w].stdin.close()  # the worker exits at end of input
                else:
                    feed(w, run_index)

            for w in range(k):
                feed(w, config)
                hand_out(w)
            done, next_yield = {}, 0
            while next_yield < config.runs:
                for key, _ in selector.select():
                    w = key.data
                    try:
                        run_index, outcome = pickle.load(procs[w].stdout)
                    except EOFError:
                        raise _worker_died(procs[w], logs[w]) from None
                    done[run_index] = outcome
                    hand_out(w)
                while next_yield in done:
                    yield done.pop(next_yield)
                    next_yield += 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                with contextlib.suppress(OSError):
                    pipe.close()
        for log in logs:
            log.close()


def run_experiment(
    config: ExperimentConfig,
    progress=None,
) -> tuple[list[RunResult], dict]:
    """Execute all runs and return (results, summary).

    Individual run failures are recorded with their reason and excluded
    from the summary; more than MAX_FAILURE_FRACTION of the runs failing
    aborts the experiment.  ``progress`` (if given) is called as
    progress(run_index, result_or_None) after each run, in run order.

    With k = min(usable CPUs, runs // RUNS_PER_WORKER) of at least 2, the
    runs go to k worker processes (``python -m stablespline._worker``, one
    BLAS thread each), one run at a time to whichever is free; otherwise
    they run in this process.  Each run draws only from its own stream, so
    the results are bitwise the same either way.  A worker that dies raises
    RuntimeError with its exit code, and no worker outlives the call.
    """
    k = min(_cpu_count(), config.runs // RUNS_PER_WORKER)
    outcomes = (
        _run_in_workers(config, k) if k >= 2
        else (_attempt(config, i) for i in range(config.runs))
    )
    results: list[RunResult] = []
    failures: list[dict] = []
    with contextlib.closing(outcomes):
        for i, (res, reason) in enumerate(outcomes):
            if res is None:
                failures.append({"run_index": i, "reason": reason})
            else:
                results.append(res)
            if progress is not None:
                progress(i, res)
    if len(failures) > MAX_FAILURE_FRACTION * config.runs:
        raise NumericError(
            f"{len(failures)}/{config.runs} runs failed "
            f"(limit {MAX_FAILURE_FRACTION:.0%}); first: {failures[0]['reason']}",
            context="benchmark.run_experiment",
        )
    summary = summarize(results)
    summary["failures"] = failures
    summary["n_failed"] = len(failures)
    summary["runs_requested"] = config.runs
    return results, summary
