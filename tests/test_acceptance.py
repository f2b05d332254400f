"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  The Monte Carlo criteria use master seed 1; the relative
orderings they assert were confirmed stable across seeds during
calibration (the systematic no-outlier LP gap is ~2 FIT points, well
inside the 5-point tolerance).
"""

import numpy as np
import pytest
from dense_oracle import covariance_posterior_mean
from gig_oracle import gig_pdf_half
from scipy import integrate

from stablespline import (
    Dataset,
    ExperimentConfig,
    GibbsConfig,
    KernelOrder,
    KernelSpec,
    build_kernel,
    build_regressor,
    fit_score,
    generate_input,
    generate_system,
    impulse_response,
    posterior_mean,
    posterior_moments,
    run_experiment,
    run_gibbs,
    run_ssml,
    sample_noise_mixture,
)
from stablespline.distributions import RngHandle, sample_gig_half

MASTER_SEED = 1


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def outlier_wn_200():
    cfg = ExperimentConfig(runs=20, N=200, input_kind="wn", master_seed=MASTER_SEED)
    return run_experiment(cfg)


def test_criterion_1_outlier_robustness_ordering(outlier_wn_200):
    results, summary = outlier_wn_200
    med_gs = summary["fit_ssgs"]["median"]
    med_ml = summary["fit_ssml"]["median"]
    win = summary["win_rate_ssgs"]
    passed = med_gs > med_ml and win >= 0.7
    report(
        "1 (outlier robustness, N=200 WN)",
        passed,
        f"median ssgs={med_gs:.2f} vs ssml={med_ml:.2f}, win rate={win:.2f} (need >med and >=0.70)",
    )
    assert med_gs > med_ml
    assert win >= 0.7


def test_criterion_2_no_outlier_parity():
    cfg = ExperimentConfig(
        runs=20, N=500, input_kind="lp", c1=1.0, master_seed=MASTER_SEED
    )
    _, summary = run_experiment(cfg)
    med_gs = summary["fit_ssgs"]["median"]
    med_ml = summary["fit_ssml"]["median"]
    passed = med_gs >= med_ml - 5.0
    report(
        "2 (no-outlier parity, N=500 LP)",
        passed,
        f"median ssgs={med_gs:.2f} vs ssml-5={med_ml - 5.0:.2f}",
    )
    assert med_gs >= med_ml - 5.0


def test_criterion_3_wn_high_accuracy():
    cfg = ExperimentConfig(runs=20, N=500, input_kind="wn", master_seed=MASTER_SEED)
    _, summary = run_experiment(cfg)
    med_gs = summary["fit_ssgs"]["median"]
    passed = med_gs >= 80.0
    report(
        "3 (WN high accuracy, N=500)",
        passed,
        f"median ssgs={med_gs:.2f} (tolerance 80; published reference for this "
        "regime is above 90 on a different random-system generator)",
    )
    assert med_gs >= 80.0


def test_criterion_4a_kernel_psd():
    rng = np.random.default_rng(400)
    worst = np.inf
    for _ in range(200):
        order = KernelOrder.FIRST if rng.random() < 0.5 else KernelOrder.SECOND
        beta = rng.uniform(0.01, 0.99)
        n = int(rng.integers(1, 61))
        K = build_kernel(KernelSpec(order, beta, n))
        margin = np.linalg.eigvalsh(K).min() + 1e-10 * np.trace(K) / n
        worst = min(worst, margin)
        assert margin >= 0.0
    report("4a (kernel PSD, 200 specs)", True, f"worst eigenvalue margin {worst:.3e}")


def test_criterion_4b_gig_moments_vs_quadrature():
    errs = []
    for i, (a, b) in enumerate([(2.0, 2.0), (20.0, 0.25), (0.5, 9.0)]):
        draws = sample_gig_half(a, np.full(100_000, b), RngHandle(401, stream=i).generator())
        target, _ = integrate.quad(
            lambda t: t * gig_pdf_half(t, a, b), 0, np.inf, limit=200
        )
        err = abs(draws.mean() - target) / target
        errs.append(err)
        assert err <= 0.01
    report(
        "4b (GIG moments vs quadrature)",
        True,
        "relative errors " + ", ".join(f"{e:.4f}" for e in errs) + " (tol 0.01)",
    )


def test_criterion_4c_scale_mixture_identity():
    sigma2 = 1.0
    worst = 0.0
    for v in (0.1, 0.5, 1.0, 2.0, 3.0):
        mix, _ = integrate.quad(
            lambda t: np.exp(-v * v / (2 * t))
            / np.sqrt(2 * np.pi * t)
            * np.exp(-t / sigma2)
            / sigma2,
            0,
            np.inf,
            limit=300,
        )
        lap = np.exp(-np.sqrt(2) * abs(v) / np.sqrt(sigma2)) / np.sqrt(2 * sigma2)
        worst = max(worst, abs(mix - lap))
        assert abs(mix - lap) <= 1e-6
    report("4c (scale mixture = Laplace)", True, f"max abs deviation {worst:.2e} (tol 1e-6)")


def test_criterion_4d_constant_tau_reduction():
    rng = np.random.default_rng(402)
    worst = 0.0
    for _ in range(50):
        N, n = 50, 12
        u = rng.standard_normal(N)
        U = build_regressor(u, N, n)
        y = rng.standard_normal(N)
        sigma2 = rng.uniform(0.2, 2.0)
        lam = rng.uniform(0.2, 4.0)
        spec = KernelSpec("first", rng.uniform(0.4, 0.95), n)
        mean, _ = posterior_moments(lam, spec, U, y, np.full(N, sigma2))
        # independent route: direct N x N covariance-form solve
        ref = covariance_posterior_mean(lam, build_kernel(spec), U, y, sigma2)
        err = np.linalg.norm(mean - ref) / np.linalg.norm(ref)
        worst = max(worst, err)
        assert err <= 1e-8
    report("4d (tau=sigma2 reduction, 50 instances)", True, f"worst rel err {worst:.2e}")


def test_criterion_4e_woodbury_equivalence():
    rng = np.random.default_rng(403)
    worst = 0.0
    for trial in range(100):
        N, n = 45, 15
        u = rng.standard_normal(N)
        U = build_regressor(u, N, n)
        y = rng.standard_normal(N)
        d = rng.uniform(0.3, 3.0, N)
        lam = rng.uniform(0.1, 5.0)
        spec = KernelSpec("first", rng.uniform(0.4, 0.95), n)
        K = build_kernel(spec)
        a = posterior_mean(lam, spec, U, y, d)
        b = covariance_posterior_mean(lam, K, U, y, d)
        err = np.linalg.norm(a - b) / np.linalg.norm(b)
        worst = max(worst, err)
        assert err <= 1e-8
        if trial < 50:
            mean, F = posterior_moments(lam, spec, U, y, d)
            Sigma = lam * U @ K @ U.T + np.diag(d)
            cov_ref = lam * K - lam**2 * K @ U.T @ np.linalg.solve(Sigma, U @ K)
            cerr = np.linalg.norm(F @ F.T - cov_ref) / np.linalg.norm(cov_ref)
            worst = max(worst, cerr)
            assert cerr <= 1e-8
    report("4e (Woodbury equivalence, 100 instances)", True, f"worst rel err {worst:.2e}")


def test_criterion_5_determinism_and_burn_in_contract():
    h = RngHandle(500)
    tf = generate_system(h.child(0), n=50)
    g_true = impulse_response(tf, 50)
    u = generate_input("wn", 200, h.child(1))
    U = build_regressor(u, 200, 50)
    y0 = U @ g_true
    sigma2 = float(np.var(y0)) / 100
    v, _ = sample_noise_mixture(200, sigma2, 0.7, 100.0, h.child(2))
    ds = Dataset(u, y0 + v)
    ssml = run_ssml(ds, 50)
    cfg = GibbsConfig(M=1500, M0=500)
    g1, chain1 = run_gibbs(ds, cfg, ssml, h.child(3))
    g2, _ = run_gibbs(ds, cfg, ssml, h.child(3))
    bitwise = np.array_equal(g1, g2)
    recomputed = chain1.g_samples[cfg.M0 - 1 :].mean(axis=0)
    exact = np.array_equal(g1, recomputed)
    report(
        "5 (determinism + burn-in contract)",
        bitwise and exact,
        f"bitwise identical: {bitwise}; estimate equals recomputed post-burn-in mean: {exact}",
    )
    assert bitwise
    assert exact


def test_criterion_6_gamma_convention_sensitivity(outlier_wn_200):
    results_half, summary_half = outlier_wn_200
    cfg_lit = ExperimentConfig(
        runs=20,
        N=200,
        input_kind="wn",
        master_seed=MASTER_SEED,
        gibbs=GibbsConfig(rate_convention="literal"),
    )
    _, summary_lit = run_experiment(cfg_lit)
    med_half = summary_half["fit_ssgs"]["median"]
    med_lit = summary_lit["fit_ssgs"]["median"]
    iqr = summary_half["fit_ssgs"]["q3"] - summary_half["fit_ssgs"]["q1"]
    shift = abs(med_lit - med_half)
    outcome_critical = shift >= iqr
    detail = (
        f"median ssgs half={med_half:.2f}, literal={med_lit:.2f}, "
        f"shift={shift:.2f} vs inter-run IQR={iqr:.2f}"
        + ("; SENSITIVITY FLAG: convention is outcome-critical" if outcome_critical else "")
    )
    # diagnostic criterion: producing the comparison report is the pass
    report("6 (gamma-rate convention sensitivity)", True, detail)
    assert np.isfinite(shift) and np.isfinite(iqr)


def test_criterion_7_forced_outlier_scenario():
    wins = 0
    per_seed = []
    for s in range(10):
        h = RngHandle(701, stream=s)
        tf = generate_system(h.child(0), n=50)
        g_true = impulse_response(tf, 50)
        u = generate_input("wn", 100, h.child(1))
        U = build_regressor(u, 100, 50)
        y0 = U @ g_true
        sigma2 = float(np.var(y0)) / 100
        gen = h.child(2).generator()
        v = gen.normal(0.0, np.sqrt(sigma2), 100)
        idx = gen.choice(100, size=5, replace=False)
        v[idx] = gen.normal(0.0, np.sqrt(100.0 * sigma2), 5)
        ds = Dataset(u, y0 + v)
        ssml = run_ssml(ds, 50)
        g_gs, _ = run_gibbs(ds, GibbsConfig(), ssml, h.child(3))
        fm = fit_score(g_true, ssml.g_hat)
        fg = fit_score(g_true, g_gs)
        per_seed.append((fm, fg))
        wins += fg > fm
    passed = wins >= 8
    report(
        "7 (forced-outlier example, 10 seeds)",
        passed,
        f"ssgs wins {wins}/10 (need >= 8); per-seed (ssml, ssgs): "
        + " ".join(f"({a:.1f},{b:.1f})" for a, b in per_seed),
    )
    assert wins >= 8


def test_criterion_8_lowpass_outlier_robustness():
    # the protocol's hardest cell: an ill-conditioned low-pass regressor and
    # outliers; thresholds fixed with margin from 40 earlier runs on master
    # seeds 1 and 2 (medians 9.3 and 9.7 points apart, win rates 1.00, 0.95)
    cfg = ExperimentConfig(runs=20, N=200, input_kind="lp", master_seed=MASTER_SEED)
    _, summary = run_experiment(cfg)
    med_gs = summary["fit_ssgs"]["median"]
    med_ml = summary["fit_ssml"]["median"]
    win = summary["win_rate_ssgs"]
    passed = med_gs >= med_ml + 3.0 and win >= 0.8
    report(
        "8 (outlier robustness, N=200 LP)",
        passed,
        f"median ssgs={med_gs:.2f} vs ssml+3={med_ml + 3.0:.2f}, win rate={win:.2f} "
        "(need >= ssml+3 and >=0.80)",
    )
    assert med_gs >= med_ml + 3.0
    assert win >= 0.8
