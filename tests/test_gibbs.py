import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stablespline import (
    ConfigError,
    Dataset,
    GibbsChain,
    GibbsConfig,
    KernelSpec,
    NumericError,
    build_kernel,
    build_regressor,
    conditional_g,
    conditional_g_moments,
    conditional_lambda,
    conditional_tau,
    fit_score,
    posterior_mean,
    quantile_diagnostics,
    run_gibbs,
    run_ssml,
)
from stablespline import gibbs
from stablespline.benchmark import ExperimentConfig, simulate
from stablespline.distributions import RngHandle
from stablespline.gibbs import TAU_THIN
from stablespline.kernels import kernel_factor, kernel_quadratic_form
from stablespline.model import Hyperparameters
from stablespline.ssml import SsmlResult


def small_dataset(rng, N=40, n=10, noise=0.1):
    u = rng.standard_normal(N)
    U = build_regressor(u, N, n)
    L = kernel_factor(KernelSpec("first", 0.8, n))
    g = L @ rng.standard_normal(n)
    y = U @ g + noise * rng.standard_normal(N)
    return Dataset(u, y), U, g


class TestConditionalTau:
    def test_zero_residual_gamma_limit(self):
        # residuals exactly zero: tau ~ Gamma(1/2, 1/sigma2), mean sigma2/2
        sigma2 = 0.8
        N = 100_000
        ds = Dataset(np.zeros(N), np.zeros(N))
        U = np.zeros((N, 3))
        tau = conditional_tau(np.zeros(3), U, ds.y, sigma2, RngHandle(70))
        assert tau.shape == (N,)
        assert abs(tau.mean() - sigma2 / 2) <= 0.02 * (sigma2 / 2)

    def test_large_residual_gig_mean(self):
        sigma2 = 1.0
        r = 6.0  # b = 36 >> 1/a
        N = 100_000
        ds = Dataset(np.zeros(N), np.full(N, r))
        U = np.zeros((N, 2))
        tau = conditional_tau(np.zeros(2), U, ds.y, sigma2, RngHandle(71))
        a, b = 2.0 / sigma2, r * r
        target = np.sqrt(b / a) * (1 + 1 / np.sqrt(a * b))
        assert abs(tau.mean() - target) <= 0.01 * target

    def test_coordinates_uncorrelated(self):
        rng = np.random.default_rng(72)
        ds, U, g = small_dataset(rng, N=5, n=3)
        gen = RngHandle(73).generator()
        draws = np.array(
            [conditional_tau(g, U, ds.y, 0.5, gen) for _ in range(10_000)]
        )
        corr = np.corrcoef(draws.T)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.all(np.abs(off) < 0.05)


def inverse_lambda_draws(g, spec, seed, size, rate_convention="half", scalar=1000):
    """``size`` draws of 1/lambda from ``conditional_lambda`` on the stream
    RngHandle(seed): the first ``scalar`` by scalar calls, checked bitwise
    against one vectorized Gamma(n/2 + 1, rate) draw of the same stream,
    whose continuation gives the rest.  The rate is computed here."""
    quad = kernel_quadratic_form(spec, g)
    shape, rate = g.size / 2.0 + 1.0, quad / 2.0 if rate_convention == "half" else quad
    gen, ref = RngHandle(seed).generator(), RngHandle(seed).generator()
    lam = np.array([conditional_lambda(g, spec, gen, rate_convention) for _ in range(scalar)])
    x = ref.gamma(shape, 1.0 / rate, size=scalar)
    assert lam.tobytes() == (1.0 / x).tobytes()
    x = np.concatenate([x, ref.gamma(shape, 1.0 / rate, size=size - scalar)])
    return 1.0 / (1.0 / x)  # as 1.0 / conditional_lambda(...) reads each draw


class TestConditionalLambda:
    def test_inverse_mean(self):
        # n=2, q=4: lambda^{-1} ~ Gamma(2, rate 2) so E[lambda^{-1}] = 1
        spec = KernelSpec("first", 0.5, 2)  # v = (1/4, 1/4): w = 2 (g_1 - g_2, g_2)
        g = np.array([1.0, 0.0])  # g'K^{-1}g = 4
        inv = inverse_lambda_draws(g, spec, 80, 100_000)
        assert abs(inv.mean() - 1.0) <= 0.01

    def test_scaling_in_g(self):
        spec = KernelSpec("first", 0.7, 4)
        rng = np.random.default_rng(81)
        g = rng.standard_normal(4)
        c = 3.0
        inv1 = inverse_lambda_draws(g, spec, 82, 50_000)
        invc = inverse_lambda_draws(c * g, spec, 83, 50_000)
        # rate scales by c^2, so E[lambda^{-1}] shrinks by 1/c^2
        ratio = invc.mean() / inv1.mean()
        assert abs(ratio - 1.0 / c**2) <= 0.03 * (1.0 / c**2)

    def test_literal_convention_doubles_inverse_mean(self):
        spec = KernelSpec("first", 0.5, 2)
        g = np.array([1.0, 0.0])  # g'K^{-1}g = 4, as above
        inv = inverse_lambda_draws(g, spec, 84, 100_000, rate_convention="literal")
        # rate 4 instead of 2: E[lambda^{-1}] = 2/4 = 0.5
        assert abs(inv.mean() - 0.5) <= 0.01

    def test_density_shape_chi_square(self):
        # histogram of lambda^{-1} draws against the Gamma(n/2+1, q/2)
        # density, which is the normalized x^{n/2} e^{-x q/2} shape
        n, q = 4, 2.5
        spec = KernelSpec("first", 0.5, n)  # v_1 = 1/4: w = (2 g_1, 0, 0, 0)
        g = np.zeros(n)
        g[0] = np.sqrt(q) / 2.0
        draws = inverse_lambda_draws(g, spec, 85, 20_000)
        dist = stats.gamma(a=n / 2 + 1, scale=2.0 / q)
        edges = dist.ppf(np.linspace(0.0, 1.0, 21))
        edges[0], edges[-1] = 0.0, np.inf
        observed, _ = np.histogram(draws, bins=edges)
        res = stats.chisquare(observed, f_exp=np.full(20, draws.size / 20))
        assert res.pvalue > 0.001

    @pytest.mark.parametrize("j", [-400, -200, 200])
    def test_scale_equivariant(self, j):
        # the rate floor holds in units of max|g|^2, so g 2^j draws the same
        # lambda times 4^j, with no floor warning at any of these scales
        spec = KernelSpec("first", 0.8, 20)
        g = 0.1 * np.random.default_rng(0).standard_normal(20)
        ref = conditional_lambda(g, spec, RngHandle(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = conditional_lambda(np.ldexp(g, j), spec, RngHandle(1))
        assert lam == np.ldexp(ref, 2 * j)

    def test_zero_g_uses_rate_floor(self):
        with pytest.warns(UserWarning):
            lam = conditional_lambda(np.zeros(3), KernelSpec("first", 0.8, 3), RngHandle(86))
        assert lam > 0 and np.isfinite(lam)


class TestConditionalEdges:
    """Each exported conditional owns its checks.  Input from outside that is
    not finite is a ConfigError naming the argument; a finite input whose
    lambda or tau cannot be represented is a NumericError of the step; and
    no numpy warning escapes either way."""

    SPEC = KernelSpec("first", 0.8, 5)

    @pytest.mark.parametrize(
        "step, g, sigma2, error, match",
        [
            # g'K^{-1}g is subnormal: its 1/rate overflows and lambda is 0
            ("lambda", np.full(5, 1e-160), None, NumericError, "lambda"),
            # g'K^{-1}g underflows to 0, and so does the rate floor
            ("lambda", np.full(5, 1e-170), None, NumericError, "lambda rate"),
            # g'K^{-1}g overflows
            ("lambda", np.full(5, 1e160), None, NumericError, "lambda rate"),
            ("tau", np.array([0.1, 0.1, np.nan, 0.1, 0.1]), 1.0, ConfigError, "^g must be finite"),
            # the squared residual overflows
            ("tau", np.full(5, 1e200), 1.0, NumericError, "tau"),
            # positive and finite, but a = 2/sigma2 overflows
            ("tau", np.full(5, 0.1), 1e-310, NumericError, "tau"),
        ],
        ids=["lambda-subnormal-rate", "lambda-zero-rate", "lambda-infinite-rate",
             "tau-nan-g", "tau-infinite-residual", "tau-infinite-a"],
    )
    def test_edge(self, step, g, sigma2, error, match):
        rng = np.random.default_rng(0)
        U = build_regressor(rng.standard_normal(20), 20, 5)
        y = rng.standard_normal(20)
        call = {
            "lambda": lambda: conditional_lambda(g, self.SPEC, RngHandle(1)),
            "tau": lambda: conditional_tau(g, U, y, sigma2, RngHandle(1)),
        }[step]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match) as info:
                call()
        if error is NumericError:
            assert info.value.context == f"gibbs.conditional_{step}"

    @pytest.mark.parametrize("name", ["U", "y"])
    def test_conditional_g_rejects_non_finite_data(self, name):
        rng = np.random.default_rng(0)
        data = {"U": build_regressor(rng.standard_normal(20), 20, 5), "y": np.ones(20)}
        data[name][3] = np.inf
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            conditional_g(1.0, np.ones(20), self.SPEC, data["U"], data["y"], RngHandle(1))

    # A shape that disagrees with the kernel's n or with the other arguments
    # is a ConfigError naming the argument, at each exported conditional and
    # at posterior_mean, whose X' builder ssml._whiten checks it (n = 5, N = 20).
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda U, y, spec: conditional_tau(np.zeros(4), U, y, 1.0, RngHandle(1)), "g"),
            (lambda U, y, spec: conditional_tau(np.zeros(5), U, y[:-1], 1.0, RngHandle(1)), "y"),
            (lambda U, y, spec: conditional_tau(np.zeros(5), U[0], y, 1.0, RngHandle(1)), "U"),
            (lambda U, y, spec: conditional_g(1.0, np.ones(20), spec, U[:, :4], y, RngHandle(1)), "U"),
            (lambda U, y, spec: conditional_g(1.0, np.ones(20), spec, U, y[:-1], RngHandle(1)), "y"),
            (lambda U, y, spec: conditional_g_moments(1.0, np.ones(20), spec, U[:, :4], y), "U"),
            (lambda U, y, spec: conditional_g_moments(1.0, np.ones(20), spec, U, y[:-1]), "y"),
            (lambda U, y, spec: conditional_lambda(np.ones(4), spec, RngHandle(1)), "g"),
            (lambda U, y, spec: posterior_mean(1.0, spec, U[:, :4], y, 1.0), "U"),
            (lambda U, y, spec: posterior_mean(1.0, spec, U[0], y, 1.0), "U"),
            (lambda U, y, spec: posterior_mean(1.0, spec, U, y[:-1], 1.0), "y"),
        ],
        ids=["tau-g-short", "tau-y-short", "tau-U-vector", "g-U-columns", "g-y-short",
             "moments-U-columns", "moments-y-short", "lambda-g-short",
             "mean-U-columns", "mean-U-vector", "mean-y-short"],
    )
    def test_shape_mismatch_names_argument(self, call, name):
        rng = np.random.default_rng(0)
        U, y = build_regressor(rng.standard_normal(20), 20, 5), rng.standard_normal(20)
        with pytest.raises(ConfigError, match=f"^{name} must have shape"):
            call(U, y, self.SPEC)

    @pytest.mark.parametrize("lam", [-1.0, 0.0, np.inf, np.nan])
    @pytest.mark.parametrize("call", [conditional_g, conditional_g_moments])
    def test_lambda_checked_at_entry(self, call, lam):
        rng = np.random.default_rng(0)
        U, y = build_regressor(rng.standard_normal(20), 20, 5), rng.standard_normal(20)
        args = (lam, np.ones(20), self.SPEC, U, y) + ((RngHandle(1),) if call is conditional_g else ())
        with pytest.raises(ConfigError, match=f"^{call.__name__} requires lambda > 0"):
            call(*args)

    @pytest.mark.parametrize("name", ["U", "y"])
    def test_conditional_g_moments_rejects_non_finite_data(self, name):
        rng = np.random.default_rng(0)
        data = {"U": build_regressor(rng.standard_normal(20), 20, 5), "y": np.ones(20)}
        data[name][3] = np.nan
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            conditional_g_moments(1.0, np.ones(20), self.SPEC, data["U"], data["y"])


class TestConditionalG:
    def test_constant_tau_reduces_to_gaussian_posterior_mean(self):
        rng = np.random.default_rng(90)
        for _ in range(10):
            ds, U, _ = small_dataset(rng)
            sigma2 = rng.uniform(0.2, 2.0)
            lam = rng.uniform(0.2, 4.0)
            spec = KernelSpec("first", rng.uniform(0.4, 0.95), 10)
            mean, _ = conditional_g_moments(lam, np.full(40, sigma2), spec, U, ds.y)
            ref = posterior_mean(lam, spec, U, ds.y, sigma2)
            assert np.linalg.norm(mean - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_tiny_lambda_collapses_draw(self):
        rng = np.random.default_rng(91)
        ds, U, _ = small_dataset(rng)
        spec = KernelSpec("first", 0.8, 10)
        g = conditional_g(1e-14, np.ones(40), spec, U, ds.y, RngHandle(92))
        assert np.linalg.norm(g) <= 1e-5 * np.linalg.norm(ds.y)

    def test_moments_match_covariance_form_oracle(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            N, n = 40, 10
            u = rng.standard_normal(N)
            U = build_regressor(u, N, n)
            y = rng.standard_normal(N)
            tau = rng.uniform(0.3, 3.0, N)
            lam = rng.uniform(0.2, 5.0)
            spec = KernelSpec("first", rng.uniform(0.4, 0.95), n)
            K = build_kernel(spec)
            mean, F = conditional_g_moments(lam, tau, spec, U, y)
            Sigma = lam * U @ K @ U.T + np.diag(tau)
            mean_ref = lam * K @ U.T @ np.linalg.solve(Sigma, y)
            cov_ref = lam * K - lam**2 * K @ U.T @ np.linalg.solve(Sigma, U @ K)
            assert np.linalg.norm(mean - mean_ref) <= 1e-8 * np.linalg.norm(mean_ref)
            assert np.linalg.norm(F @ F.T - cov_ref) <= 1e-8 * np.linalg.norm(cov_ref)

    def test_fixed_point_sample_moments(self):
        # tau and lambda frozen: empirical mean/cov of repeated draws must
        # converge to the analytic conditional moments
        rng = np.random.default_rng(94)
        N, n = 40, 10
        u = rng.standard_normal(N)
        U = build_regressor(u, N, n)
        y = rng.standard_normal(N)
        tau = rng.uniform(0.5, 2.0, N)
        lam = 1.3
        spec = KernelSpec("first", 0.8, n)
        mean, F = conditional_g_moments(lam, tau, spec, U, y)
        gen = RngHandle(95).generator()
        draws = np.array(
            [conditional_g(lam, tau, spec, U, y, gen) for _ in range(10_000)]
        )
        cov = F @ F.T
        assert np.linalg.norm(draws.mean(axis=0) - mean) <= 0.05 * max(
            np.linalg.norm(mean), np.sqrt(np.trace(cov))
        )
        assert np.linalg.norm(np.cov(draws.T) - cov) <= 0.05 * np.linalg.norm(cov)

    def test_row_exchangeability_of_moments(self):
        rng = np.random.default_rng(96)
        N, n = 30, 8
        U = rng.standard_normal((N, n))
        y = rng.standard_normal(N)
        tau = rng.uniform(0.3, 2.0, N)
        spec = KernelSpec("first", 0.75, n)
        perm = rng.permutation(N)
        mean_a, F_a = conditional_g_moments(1.7, tau, spec, U, y)
        mean_b, F_b = conditional_g_moments(1.7, tau[perm], spec, U[perm], y[perm])
        assert np.allclose(mean_a, mean_b, rtol=1e-10, atol=1e-12)
        assert np.allclose(F_a @ F_a.T, F_b @ F_b.T, rtol=1e-10, atol=1e-12)


class TestRunGibbs:
    def _fit_inputs(self, seed=100, N=120, n=10):
        rng = np.random.default_rng(seed)
        ds, U, g = small_dataset(rng, N=N, n=n)
        ssml = run_ssml(ds, n)
        return ds, g, ssml

    def test_bitwise_determinism(self):
        ds, _, ssml = self._fit_inputs()
        cfg = GibbsConfig(M=150, M0=50)
        g1, c1 = run_gibbs(ds, cfg, ssml, RngHandle(101))
        g2, c2 = run_gibbs(ds, cfg, ssml, RngHandle(101))
        assert np.array_equal(g1, g2)
        assert np.array_equal(c1.g_samples, c2.g_samples)
        assert np.array_equal(c1.lambda_samples, c2.lambda_samples)

    def test_estimate_is_post_burn_in_mean(self):
        ds, _, ssml = self._fit_inputs()
        cfg = GibbsConfig(M=250, M0=100)
        g_hat, chain = run_gibbs(ds, cfg, ssml, RngHandle(102))
        recomputed = chain.g_samples[cfg.M0 - 1 :].mean(axis=0)
        assert np.array_equal(g_hat, recomputed)

    def test_estimate_ignores_pre_burn_in_samples(self):
        ds, _, ssml = self._fit_inputs()
        cfg = GibbsConfig(M=250, M0=100)
        g_hat, chain = run_gibbs(ds, cfg, ssml, RngHandle(103))
        mutated = chain.g_samples.copy()
        mutated[: cfg.M0 - 1] = 1e9
        alt = GibbsChain(
            g_samples=mutated,
            lambda_samples=chain.lambda_samples,
            tau_samples=chain.tau_samples,
            burn_in=chain.burn_in,
        )
        assert np.array_equal(alt.post_burn_in().mean(axis=0), g_hat)

    def test_chain_positivity(self):
        ds, _, ssml = self._fit_inputs()
        cfg = GibbsConfig(M=120, M0=20)
        _, chain = run_gibbs(ds, cfg, ssml, RngHandle(104))
        assert np.all(chain.lambda_samples > 0)
        assert chain.tau_samples.shape == (cfg.M // TAU_THIN, ds.N)
        assert np.all(chain.tau_samples > 0)
        assert np.all(np.isfinite(chain.g_samples))

    def test_low_laplace_noise_recovery(self):
        h = RngHandle(902)
        gen = h.child(0).generator()
        n, N = 50, 500
        L = kernel_factor(KernelSpec("first", 0.8, n))
        g_true = L @ gen.standard_normal(n)
        u = gen.standard_normal(N)
        U = build_regressor(u, N, n)
        y0 = U @ g_true
        s2 = 1e-4 * float(np.var(y0))
        ds = Dataset(u, y0 + h.child(1).generator().laplace(0.0, np.sqrt(s2 / 2.0), size=N))
        ssml = run_ssml(ds, n)
        g_gs, _ = run_gibbs(ds, GibbsConfig(), ssml, h.child(2))
        assert fit_score(g_true, g_gs) >= 95.0

    def test_degenerate_chain_approaches_ssml_estimate(self, monkeypatch):
        # tau pinned at sigma2_hat: the chain targets the Gaussian-noise
        # posterior with lambda marginalized, so its mean should sit within
        # Monte Carlo error bars of the plug-in SS-ML estimate.  The error
        # bar (8 batch-means SEs per coordinate) was calibrated by pilot:
        # observed max ratio ~5.5 on this seed.
        h = RngHandle(903)
        gen = h.child(0).generator()
        n, N = 20, 400
        L = kernel_factor(KernelSpec("first", 0.8, n))
        g_true = L @ gen.standard_normal(n)
        u = gen.standard_normal(N)
        U = build_regressor(u, N, n)
        y0 = U @ g_true
        s2 = float(np.var(y0)) / 100
        ds = Dataset(u, y0 + gen.normal(0.0, np.sqrt(s2), N))
        ssml = run_ssml(ds, n)
        cfg = GibbsConfig(M=3000, M0=500)
        # the chain's sigma2, 2/a: run_gibbs samples on scaled data
        monkeypatch.setattr(
            gibbs, "sample_gig_half", lambda a, b, rng: np.full(b.shape, 2.0 / a)
        )
        g_fix, chain = run_gibbs(ds, cfg, ssml, h.child(1))
        post = chain.post_burn_in()
        nb = 25
        bs = post.shape[0] // nb
        batch_means = post[: nb * bs].reshape(nb, bs, n).mean(axis=1)
        se = batch_means.std(axis=0, ddof=1) / np.sqrt(nb)
        assert np.all(np.abs(g_fix - ssml.g_hat) <= 8.0 * se)

    # From sweep 3 on, each fault breaks one step of the sweep: a zero tau
    # fails the tau guard; an infinite Gamma draw makes lambda 0; tau = 1e-320
    # passes the tau guard but scales [Phi y] by 1e160, so the information
    # matrix of the g step overflows.
    FAULTS = {
        "tau": (
            "sample_gig_half",
            lambda tau: np.concatenate([[0.0], tau[1:]]),
            "non-positive/non-finite tau",
        ),
        "lambda": ("sample_gamma", lambda x: np.inf, "non-positive/non-finite lambda"),
        "g": (
            "sample_gig_half",
            lambda tau: np.full_like(tau, 1e-320),
            "information-form system not (positive definite|finite)",
        ),
    }

    @pytest.mark.parametrize("step", ["tau", "lambda", "g"])
    def test_failed_step_names_sweep(self, monkeypatch, step):
        name, fault, message = self.FAULTS[step]
        ds, _, ssml = self._fit_inputs()
        real, calls = getattr(gibbs, name), []

        def faulty_from_sweep_3(*args):
            calls.append(None)
            x = real(*args)
            return fault(x) if len(calls) >= 3 else x

        monkeypatch.setattr(gibbs, name, faulty_from_sweep_3)
        cfg = GibbsConfig(M=50, M0=10)
        with pytest.raises(NumericError) as info:
            run_gibbs(ds, cfg, ssml, RngHandle(105))
        assert info.value.context == f"gibbs.conditional_{step}"
        assert re.fullmatch(f"{message} at sweep 3", info.value.message)

    @pytest.fixture(scope="class")
    def scale_reference(self):
        sim = simulate(ExperimentConfig(N=200, n=20), RngHandle(4))
        init = run_ssml(sim.dataset, 20)
        cfg = GibbsConfig(M=100, M0=50)
        return sim.dataset, init, cfg, run_gibbs(sim.dataset, cfg, init, RngHandle(1))

    @pytest.mark.parametrize(
        "i, j",
        [(0, -400), (0, -200), (0, 0), (0, 200), (0, 400),
         (24, 24), (300, 0), (-300, 0), (200, -200)],
    )
    def test_chain_is_scale_equivariant(self, scale_reference, i, j):
        # Input u 2^i and output y 2^j, started from g0 2^(j-i) and sigma2
        # 4^j: the chain runs on the same power-of-two scaled data, so every
        # draw maps exactly.  An unscaled chain floors the lambda rate at
        # j - i <= -200 and overflows the GIG draw at |j| = 400.
        ds, init, cfg, (g_ref, chain_ref) = scale_reference
        hyper = init.hyper
        scaled = SsmlResult(
            g_hat=np.ldexp(init.g_hat, j - i),
            hyper=Hyperparameters(
                np.ldexp(hyper.lam, 2 * (j - i)), hyper.beta, np.ldexp(hyper.sigma2, 2 * j)
            ),
            objective=init.objective,
            order=init.order,
        )
        data = Dataset(np.ldexp(ds.u, i), np.ldexp(ds.y, j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g_hat, chain = run_gibbs(data, cfg, scaled, RngHandle(1))
        assert np.array_equal(g_hat, np.ldexp(g_ref, j - i))
        assert np.array_equal(chain.g_samples, np.ldexp(chain_ref.g_samples, j - i))
        assert np.array_equal(
            chain.lambda_samples, np.ldexp(chain_ref.lambda_samples, 2 * (j - i))
        )
        assert np.array_equal(chain.tau_samples, np.ldexp(chain_ref.tau_samples, 2 * j))

    LAST_SAMPLE_CONFIG = GibbsConfig(M=60, M0=20)

    @pytest.fixture(scope="class")
    def last_sample_reference(self):
        ds = simulate(ExperimentConfig(N=200, n=20), RngHandle(4)).dataset
        refs = {}
        for order in ("first", "second"):
            init = run_ssml(ds, 20, order)
            refs[order] = init, run_gibbs(ds, self.LAST_SAMPLE_CONFIG, init, RngHandle(1))
        return ds, refs

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        order=st.sampled_from(["first", "second"]),
        last=st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(order="first", last=1e300)
    @example(order="second", last=-5e-324)
    def test_last_input_sample_is_not_read(self, last_sample_reference, order, last):
        # u(N) enters no row of the regressor, so neither estimator reads
        # it, not even through the power-of-two scale of the data
        ds, refs = last_sample_reference
        u = ds.u.copy()
        u[-1] = last
        data = Dataset(u, ds.y)
        ref, (g_ref, chain_ref) = refs[order]
        init = run_ssml(data, 20, order)
        assert np.array_equal(init.g_hat, ref.g_hat)
        assert (init.hyper, init.objective) == (ref.hyper, ref.objective)
        g_hat, chain = run_gibbs(data, self.LAST_SAMPLE_CONFIG, init, RngHandle(1))
        assert np.array_equal(g_hat, g_ref)
        assert np.array_equal(chain.g_samples, chain_ref.g_samples)
        assert np.array_equal(chain.lambda_samples, chain_ref.lambda_samples)
        assert np.array_equal(chain.tau_samples, chain_ref.tau_samples)

    def test_underflowed_prior_entries_stay_zero(self):
        # beta = 0.01, n = 200: v_l = beta^l (1 - beta) underflows to 0 from
        # l = 162 on, so the prior holds g_l at exactly 0 there, and so does
        # every draw; the start w0 = L^{-1} g0 divides by no zero
        n, N, beta = 200, 300, 0.01
        zero = np.float_power(beta, np.arange(1, n + 1)) * (1 - beta) == 0.0
        assert 0 < np.count_nonzero(zero) < n and zero[np.argmax(zero):].all()
        rng = np.random.default_rng(130)
        u = rng.standard_normal(N)
        U = build_regressor(u, N, n)
        g0 = np.zeros(n)
        g0[:3] = [1.0, 0.01, 1e-4]
        ds = Dataset(u, U @ g0 + 0.1 * rng.laplace(size=N))
        init = SsmlResult(g0, Hyperparameters(lam=1.0, beta=beta, sigma2=0.01), 0.0, "first")
        _, chain = run_gibbs(ds, GibbsConfig(M=20, M0=10), init, RngHandle(131))
        assert np.all(np.isfinite(chain.g_samples))
        assert np.all(chain.g_samples[:, zero] == 0.0)
        assert np.all(chain.g_samples[:, 0] != 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GibbsConfig(M=100, M0=100)
        with pytest.raises(ConfigError):
            GibbsConfig(rate_convention="bogus")


class TestQuantileDiagnostics:
    def _chain(self, g_samples, burn_in=1):
        M = g_samples.shape[0]
        return GibbsChain(
            g_samples=g_samples,
            lambda_samples=np.ones(M),
            tau_samples=np.empty((0, 0)),
            burn_in=burn_in,
        )

    def test_iid_chain_not_flagged(self):
        gen = RngHandle(110).generator()
        chain = self._chain(gen.standard_normal((1000, 8)))
        report = quantile_diagnostics(chain)
        assert report.flagged_count == 0
        assert report.quantiles.shape == (8, 3)
        assert np.all(report.discrepancy >= 0.0)

    def test_constant_chain_zero_discrepancy(self):
        chain = self._chain(np.full((400, 5), 2.5))
        report = quantile_diagnostics(chain)
        assert np.array_equal(report.discrepancy, np.zeros((5, 3)))
        assert report.flagged_count == 0

    def test_trending_chain_all_flagged(self):
        drift = np.linspace(0.0, 50.0, 600)[:, None] * np.ones((1, 4))
        gen = RngHandle(111).generator()
        chain = self._chain(drift + 0.01 * gen.standard_normal((600, 4)))
        report = quantile_diagnostics(chain)
        assert report.flagged.all()

    def test_too_short_chain_rejected(self):
        chain = self._chain(np.zeros((120, 3)), burn_in=50)
        with pytest.raises(ConfigError):
            quantile_diagnostics(chain)
