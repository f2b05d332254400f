"""Correctness checks made apart from the program.

Every check recomputes what it needs with numpy from the inputs the
benchmark generated, or tests a property the method must have.  None
compares against a stored copy of an earlier output.  Each function returns
a list of error strings; an empty list means the output passed.

Tolerances are relative because N=500 results depend on the BLAS thread
count in the last digits.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# The instability guard of the random-system generator; the only failure the
# Monte Carlo workloads may report.
GUARD_MESSAGE = "before scaling"

FIT_CEILING = 100.0
MIN_WIN_RATE = 0.7
MIN_MEDIAN_FIT_N500 = 80.0
G_HAT_RTOL = 1e-6        # information-form estimate against the covariance form
# Reported objective against the dense N x N value, relative to
# |log det S| + |y'S^{-1}y|: the two terms nearly cancel on some datasets.
OBJECTIVE_RTOL = 1e-8
SIGMA2_RTOL = 1e-8       # noise variance against an independent least-squares fit
# How far an independent grid point may beat the reported optimum, in units of
# the objective (twice nats).  The grid-refined search resolves the optimum to
# a few thousandths and can stop at a refinement window's edge a few hundredths short
# in a flat basin; a search that misses the optimum's region loses far more.
GRID_TOL = 0.1
FIT_ATOL = 1e-9          # percentage points
REPEAT_RTOL = 1e-6       # later rounds against the first, same inputs


def fit_percent(g_true, g_hat) -> float:
    g_true = np.asarray(g_true, dtype=float)
    return 100.0 * (1.0 - np.linalg.norm(g_true - np.asarray(g_hat)) / np.linalg.norm(g_true))


# ---------------------------------------------------------------- Monte Carlo

def check_run_fits(rows) -> list[str]:
    """rows: (run_index, fit_ssml, fit_ssgs) of every completed run."""
    return [
        f"run {i}: {name} FIT {v!r} is not a finite value <= {FIT_CEILING:g}"
        for i, ml, gs in rows
        for name, v in (("SS-ML", ml), ("SS-GS", gs))
        if not (math.isfinite(v) and v <= FIT_CEILING)
    ]


def check_claim(rows) -> list[str]:
    """SS-GS beats SS-ML under outliers: higher median FIT, win rate >= 0.7."""
    ml = np.array([r[1] for r in rows])
    gs = np.array([r[2] for r in rows])
    errors = []
    if not np.median(gs) > np.median(ml):
        errors.append(f"SS-GS median FIT {np.median(gs):.3f} is not above SS-ML {np.median(ml):.3f}")
    win = float(np.mean(gs > ml))
    if win < MIN_WIN_RATE:
        errors.append(f"SS-GS win rate {win:.3f} is below {MIN_WIN_RATE}")
    return errors


def check_accuracy(rows) -> list[str]:
    """Acceptance criterion 3: median SS-GS FIT of at least 80 at N=500.  The
    claim's win-rate form needs more runs than an N=500 round holds."""
    med = float(np.median([r[2] for r in rows]))
    if not med >= MIN_MEDIAN_FIT_N500:
        return [f"SS-GS median FIT {med:.3f} is below {MIN_MEDIAN_FIT_N500:g}"]
    return []


def _five_number(values) -> dict:
    q = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100])
    return dict(zip(("min", "q1", "median", "q3", "max"), (float(v) for v in q)))


def check_summary(rows, summary: dict) -> list[str]:
    """The program's summary against one recomputed from the per-run rows."""
    ml = [r[1] for r in rows]
    gs = [r[2] for r in rows]
    expect = {
        "n_completed": len(rows),
        "fit_ssml": _five_number(ml),
        "fit_ssgs": _five_number(gs),
        "win_rate_ssgs": float(np.mean(np.array(gs) > np.array(ml))),
    }
    errors = []
    for key, want in expect.items():
        got = summary.get(key)
        if isinstance(want, dict):
            if not isinstance(got, dict) or any(
                not math.isclose(got.get(k, math.nan), v, rel_tol=1e-12, abs_tol=1e-12)
                for k, v in want.items()
            ):
                errors.append(f"summary {key} {got} differs from recomputed {want}")
        elif got != want:
            errors.append(f"summary {key} {got!r} differs from recomputed {want!r}")
    return errors


def check_written(csv_path, summary_path, results, summary: dict) -> list[str]:
    """The runs CSV and the summary document parse back to the same floats."""
    errors = []
    with open(csv_path, newline="") as fh:
        table = list(csv.reader(fh))
    if table[:1] != [["run", "fit_ssml", "fit_ssgs", "beta_hat", "sigma2", "warnings"]]:
        errors.append(f"{csv_path}: unexpected header {table[:1]}")
    body = table[1:]
    if len(body) != len(results):
        errors.append(f"{csv_path}: {len(body)} rows for {len(results)} runs")
    for row, r in zip(body, results):
        want = [r.run_index, r.fit_ssml, r.fit_ssgs, r.beta_hat, r.sigma2]
        got = [int(row[0])] + [float(v) for v in row[1:5]]
        if got != want:
            errors.append(f"{csv_path}: row {row} does not parse back to {want}")
    with open(summary_path) as fh:
        doc = json.load(fh)
    for key in ("n_completed", "n_failed", "win_rate_ssgs", "fit_ssml", "fit_ssgs"):
        if doc.get(key) != summary[key]:
            errors.append(f"{summary_path}: {key} {doc.get(key)!r} != {summary[key]!r}")
    return errors


def check_failures(messages) -> list[str]:
    return [
        f"failure other than the instability guard: {m}"
        for m in messages
        if GUARD_MESSAGE not in m
    ]


# --------------------------------------------------------------- SS-ML identify

def regressor(u: np.ndarray, n: int) -> np.ndarray:
    """U[t, k] = u[t - k - 1] (0-based), zero before the record starts."""
    N = u.size
    U = np.zeros((N, n))
    for k in range(n):
        U[k + 1:, k] = u[: N - k - 1]
    return U


def first_order_kernel(beta: float, n: int) -> np.ndarray:
    idx = np.arange(1, n + 1)
    return beta ** np.maximum.outer(idx, idx).astype(float)


def ls_noise_variance(U: np.ndarray, y: np.ndarray) -> float:
    """Least-squares residual variance |y - U g_LS|^2 / (N - n)."""
    g, *_ = np.linalg.lstsq(U, y, rcond=None)
    r = y - U @ g
    return float(r @ r) / (U.shape[0] - U.shape[1])


class Marglik:
    """The SS-ML objective log det S + y'S^{-1}y, S = lam U K U' + sigma2 I, on
    many (beta, lambda) points at one eigendecomposition per beta.

    With U'U = L L' and L' K L = V diag(mu) V', for c = lam / sigma2:
    log det S = N log sigma2 + sum log(1 + c mu) and
    y'S^{-1}y = (y'y - c sum mu p^2 / (1 + c mu)) / sigma2, p = V' L^{-1} U'y.
    """

    def __init__(self, U: np.ndarray, y: np.ndarray, sigma2: float):
        self.N, self.n = U.shape
        self.sigma2 = sigma2
        self.yy = float(y @ y)
        self.L = np.linalg.cholesky(U.T @ U)
        self.w = np.linalg.solve(self.L, U.T @ y)
        self._eigs = {}

    def _eig(self, beta: float):
        if beta not in self._eigs:
            A = self.L.T @ first_order_kernel(beta, self.n) @ self.L
            mu, V = np.linalg.eigh(A)
            self._eigs[beta] = (np.maximum(mu, 0.0), V.T @ self.w)
        return self._eigs[beta]

    def values(self, beta: float, lams) -> np.ndarray:
        mu, p = self._eig(beta)
        c = np.asarray(lams, dtype=float)[:, None] / self.sigma2
        d = 1.0 + c * mu
        quad = (self.yy - np.sum(c * mu * p * p / d, axis=1)) / self.sigma2
        return self.N * np.log(self.sigma2) + np.sum(np.log(d), axis=1) + quad


GRID_BETAS = np.linspace(0.02, 0.98, 49)
GRID_DECADES = np.linspace(-8.0, 8.0, 65)


def load_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1], data[:, 2]


SEARCH_MISSED = "search missed the optimum"


def check_identify(dataset_path, truth_path, doc: dict) -> list[str]:
    """Full check of one SS-ML identification result document."""
    u, y = load_dataset(dataset_path)
    with open(truth_path) as fh:
        g_true = np.array(json.load(fh)["impulse_response"], dtype=float)
    n = g_true.size
    errors = []
    if doc.get("config", {}).get("kernel") != "first":
        return [f"check covers the first-order kernel only, got {doc.get('config')}"]
    hyper = doc["hyperparameters"]
    lam, beta, sigma2 = hyper["lambda"], hyper["beta"], hyper["sigma2"]
    g_hat = np.array(doc["ssml"]["g_hat"], dtype=float)
    objective = doc["ssml"]["objective"]
    if not (lam > 0 and 0 < beta < 1 and sigma2 > 0 and g_hat.shape == (n,)):
        return [f"malformed result: lambda={lam}, beta={beta}, sigma2={sigma2}, g_hat {g_hat.shape}"]

    U = regressor(u, n)
    ls = ls_noise_variance(U, y)
    if not math.isclose(sigma2, ls, rel_tol=SIGMA2_RTOL):
        errors.append(f"sigma2 {sigma2!r} differs from the least-squares value {ls!r}")

    K = first_order_kernel(beta, n)
    S = lam * (U @ K @ U.T) + sigma2 * np.eye(u.size)
    alpha = np.linalg.solve(S, y)
    g_cov = lam * (K @ (U.T @ alpha))
    gap = np.linalg.norm(g_hat - g_cov) / np.linalg.norm(g_cov)
    if not gap <= G_HAT_RTOL:
        errors.append(f"g_hat differs from the covariance-form posterior mean by {gap:.3g} (relative)")

    sign, logdet = np.linalg.slogdet(S)
    quad = float(y @ alpha)
    dense = logdet + quad if sign > 0 else math.inf
    if not abs(objective - dense) <= OBJECTIVE_RTOL * (abs(logdet) + abs(quad)):
        errors.append(f"objective {objective!r} differs from the dense value {dense!r}")

    m = Marglik(U, y, sigma2)
    lams = lam * 10.0**GRID_DECADES
    best = min((float(m.values(bt, lams).min()), float(bt)) for bt in GRID_BETAS)
    if best[0] < objective - GRID_TOL:
        errors.append(
            f"{SEARCH_MISSED}: the grid reaches {best[0]!r} at beta={best[1]:.2f}, "
            f"below the reported {objective!r} by more than {GRID_TOL}"
        )

    fit = fit_percent(g_true, g_hat)
    reported = doc.get("fit", {}).get("ssml")
    if reported is None or not math.isclose(reported, fit, rel_tol=0.0, abs_tol=FIT_ATOL):
        errors.append(f"reported FIT {reported!r} differs from recomputed {fit!r}")
    return errors


def check_repeat(first: dict, later: dict) -> list[str]:
    """A later round on the same dataset agrees with the checked first round."""
    a = np.array(first["ssml"]["g_hat"])
    b = np.array(later["ssml"]["g_hat"])
    if a.shape != b.shape or np.linalg.norm(a - b) > REPEAT_RTOL * np.linalg.norm(a):
        return ["g_hat differs between rounds on the same dataset"]
    if not math.isclose(first["fit"]["ssml"], later["fit"]["ssml"], rel_tol=REPEAT_RTOL):
        return ["FIT differs between rounds on the same dataset"]
    return []
