"""The whitened Gibbs step: Woodbury identity, sampler equivalence, guards.

The sweep draws w = L_K^{-1} g with Phi = U L_K by one solve of the
information form A w = c of X = [Phi y] per draw, with a perturbed
right-hand side (see :func:`stablespline.posterior.information_system`).  These
tests hold it to the covariance-form posterior, to a g-space copy of the
sweep, to its budget of factorizations, and at the edges of the guards it
carries.
"""

import warnings
from collections import Counter

import numpy as np
import pytest
from dense_oracle import covariance_posterior
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from stablespline import (
    ConfigError,
    Dataset,
    GibbsConfig,
    KernelSpec,
    NumericError,
    build_kernel,
    build_regressor,
    conditional_g,
    conditional_lambda,
    conditional_tau,
    gibbs,
    posterior_mean,
    posterior_moments,
    run_gibbs,
    run_ssml,
)
from stablespline.benchmark import generate_input
from stablespline.distributions import (
    RngHandle,
    as_generator,
    sample_gamma,
    sample_gig_half,
    sample_mvn,
)
from stablespline.gibbs import LAMBDA_RATE_FLOOR_FACTOR
from stablespline.kernels import kernel_factor, kernel_quadratic_form
from stablespline.model import Hyperparameters, power_of_two_scaled
from stablespline.posterior import information_system, whiten
from stablespline.ssml import IllConditionedWarning, SsmlResult


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from(["first", "second"]),
    beta=st.floats(0.05, 0.99),
    log_lam=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_whitened_step_matches_covariance_form(order, beta, log_lam, seed):
    rng = np.random.default_rng(seed)
    N, n = 30, 8
    lam = 10.0**log_lam
    U = build_regressor(rng.standard_normal(N), N, n)
    y = rng.standard_normal(N)
    tau = rng.uniform(0.1, 10.0, N)
    spec = KernelSpec(order, beta, n)
    L_K = kernel_factor(spec)
    # the kernel as factored, K itself to rounding for both orders
    K = L_K @ L_K.T

    mean, F = posterior_moments(lam, spec, U, y, tau)

    S = lam * U @ K @ U.T + np.diag(tau)
    mean_ref = lam * K @ U.T @ np.linalg.solve(S, y)
    cov_ref = lam * K - lam**2 * K @ U.T @ np.linalg.solve(S, U @ K)
    assert np.linalg.norm(mean - mean_ref) <= 1e-8 * np.linalg.norm(mean_ref)
    assert np.linalg.norm(F @ F.T - cov_ref) <= 1e-8 * np.linalg.norm(cov_ref)
    assert np.array_equal(F, np.triu(F))


@settings(max_examples=40, deadline=None)
@given(
    order=st.sampled_from(["first", "second"]),
    beta=st.floats(0.05, 0.99),
    log_lam=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.parametrize("N", [5, 30])
def test_information_system_identity(N, order, beta, log_lam, seed):
    # N = 5 < n leaves Phi'D^{-1}Phi singular; N = 30 > n does not
    rng = np.random.default_rng(seed)
    n = 8
    lam = 10.0**log_lam
    Phi = build_regressor(rng.standard_normal(N), N, n) @ kernel_factor(KernelSpec(order, beta, n))
    y = rng.standard_normal(N)
    tau = rng.uniform(0.1, 10.0, N)
    Xt, s = np.vstack([Phi.T, y]), 1.0 / np.sqrt(tau)
    Xs = Xt * s
    before = Xs.tobytes()

    A, c = information_system(lam, Xs, "test")

    assert Xs.tobytes() == before
    A_ref = np.eye(n) / lam + Phi.T @ (Phi / tau[:, None])
    c_ref = Phi.T @ (y / tau)
    # rounding scales of a Gram: |D^{-1/2}Phi|^2 and |D^{-1/2}Phi||D^{-1/2}y|
    assert np.linalg.norm(A - A_ref) <= 1e-12 * np.trace(A_ref)
    assert np.linalg.norm(c - c_ref) <= 1e-12 * np.linalg.norm(Xs[:n]) * np.linalg.norm(Xs[n])
    assert np.array_equal(A, A.T)
    # positive definite for any N: the I/lam term
    assert np.all(np.linalg.eigvalsh(A) > 0)


def covariance_factor_sweep(dataset, init, rng, sweeps, restart=None):
    """Oracle: the g-space sweep through the posterior covariance factor.

    Same conditionals and RNG order (tau, then lambda, then e ~ N(0, I_{N+n}))
    as the whitened sweep, with g'K^{-1}g by a triangular solve against the
    upper-triangular L_K and the g
    draw F t + F z for F = L_K L_A^{-T}: F t is the posterior mean
    and z = F'b, with b = U'D^{-1/2} e_N + L_K^{-T} e_n / sqrt(lam), is
    standard normal, since F'(U'D^{-1}U + K^{-1}/lam) F = I.  So F z is the
    perturbed mean's offset, formed without the perturbed system.  n and the
    kernel order are ``init``'s.  With ``restart`` (the chain's g draws),
    sweep k > 1 starts from the chain's draw k - 1 instead of the oracle's
    own, so rounding does not compound.
    """
    y, N, n = dataset.y, dataset.N, init.g_hat.size
    U = build_regressor(dataset.u, N, n)
    spec = KernelSpec(init.order, init.hyper.beta, n)
    K, L_K = build_kernel(spec), kernel_factor(spec)
    # run_gibbs's floor holds in units of (max|y| / max|u(1..N-1)|)^2
    m, k = (int(np.frexp(np.max(np.abs(v)))[1]) for v in (U, y))
    rate_floor = np.ldexp(LAMBDA_RATE_FLOOR_FACTOR * float(np.trace(K)), 2 * (k - m))
    gen = as_generator(rng)
    g = np.array(init.g_hat)
    draws = []
    for k in range(sweeps):
        if restart is not None and k:
            g = restart[k - 1]
        r = y - U @ g
        tau = sample_gig_half(2.0 / init.hyper.sigma2, r * r, gen)
        w = solve_triangular(L_K, g)
        rate = max(float(w @ w) / 2.0, rate_floor)
        lam = 1.0 / sample_gamma(n / 2.0 + 1.0, rate, gen)
        e = gen.standard_normal(N + n)
        W = U / tau[:, None]
        A = np.eye(n) / lam + L_K.T @ (U.T @ W) @ L_K
        L_A = np.linalg.cholesky(A)
        t = solve_triangular(L_A, L_K.T @ (W.T @ y), lower=True)
        F = solve_triangular(L_A, L_K.T, lower=True).T
        b = U.T @ (e[:N] / np.sqrt(tau))
        b += solve_triangular(L_K.T, e[N:], lower=True) / np.sqrt(lam)
        g = F @ (t + F.T @ b)
        draws.append(g)
    return np.array(draws)


def _laplace_problem(order, input_kind, seed, N=120, n=15):
    rng = np.random.default_rng(seed)
    u = generate_input(input_kind, N, RngHandle(seed))
    U = build_regressor(u, N, n)
    g_true = kernel_factor(KernelSpec(order, 0.8, n)) @ rng.standard_normal(n)
    # Laplace noise: the draws the sweep is built for
    ds = Dataset(u, U @ g_true + rng.laplace(0.0, 0.1, N))
    return ds, run_ssml(ds, n, order)


@pytest.mark.parametrize("order", ["first", "second"])
def test_sampler_matches_covariance_factor_oracle(order):
    # white-noise input: the chained oracle follows the chain for 20 sweeps
    sweeps = 20
    ds, init = _laplace_problem(order, "wn", 9)

    _, chain = run_gibbs(ds, GibbsConfig(M=sweeps, M0=10), init, RngHandle(9))
    oracle = covariance_factor_sweep(ds, init, RngHandle(9), sweeps)

    gap = np.linalg.norm(chain.g_samples - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
    assert gap.max() <= 1e-9


@pytest.mark.parametrize("order", ["first", "second"])
def test_lowpass_step_matches_covariance_factor_oracle(order):
    # low-pass input: A is ill-conditioned, so each sweep is compared from
    # the chain's own state rather than along a chained oracle
    sweeps = 20
    ds, init = _laplace_problem(order, "lp", 10)

    _, chain = run_gibbs(ds, GibbsConfig(M=sweeps, M0=10), init, RngHandle(10))
    oracle = covariance_factor_sweep(ds, init, RngHandle(10), sweeps, restart=chain.g_samples)

    gap = np.linalg.norm(chain.g_samples - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
    assert gap.max() <= 1e-9


class TestFactorizationBudget:
    """Each g draw makes one solve of an n x n system against a single
    right-hand side and no Cholesky, the sweep makes no other numpy.linalg
    call, and it draws once each from the tau, lambda and g samplers that
    the traced benchmark times: counted inside run_gibbs."""

    N, n = 60, 10
    SAMPLERS = ("sample_gig_half", "sample_gamma", "sample_mvn")

    def _calls(self, monkeypatch, run):
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, [np.shape(x) for x in args]))
                return fn(*args, **kwargs)

            return wrapped

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, counting(name, fn))
        for name in self.SAMPLERS:
            monkeypatch.setattr(gibbs, name, counting(name, getattr(gibbs, name)))
        run()
        monkeypatch.undo()
        return calls

    def test_one_solve_and_no_cholesky_per_sweep(self, monkeypatch):
        rng = np.random.default_rng(66)
        u = rng.standard_normal(self.N)
        U = build_regressor(u, self.N, self.n)
        ds = Dataset(u, U @ rng.standard_normal(self.n) + rng.laplace(0.0, 0.1, self.N))
        init = run_ssml(ds, self.n)

        def sweeps(M):
            cfg = GibbsConfig(M=M, M0=1)
            return self._calls(monkeypatch, lambda: run_gibbs(ds, cfg, init, RngHandle(66)))

        short, long = sweeps(3), sweeps(8)
        extra = Counter(name for name, _ in long)
        extra.subtract(name for name, _ in short)
        assert +extra == Counter(solve=5, **dict.fromkeys(self.SAMPLERS, 5))
        assert -extra == Counter()
        solves = [shapes for name, shapes in long if name == "solve"]
        # every solve is a draw: the first-order chain starts at
        # w = L_K^{-1} g0 by first differences
        assert all(shapes == [(self.n, self.n), (self.n,)] for shapes in solves)
        assert not {"qr", "eigh"} & {name for name, _ in long}


class TestDataNeverWritten:
    """X' = [Phi y]' holds the data for the whole chain: ``whiten`` returns
    it read-only, and the g step scales it into its own array, so it leaves
    every input as it found it, even a writable X'."""

    N, n = 30, 5

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(68)
        U = build_regressor(rng.standard_normal(self.N), self.N, self.n)
        spec = KernelSpec("first", 0.8, self.n)
        return spec, U, rng.standard_normal(self.N), rng.uniform(0.5, 2.0, self.N)

    def test_whitened_data_is_read_only(self, problem):
        spec, U, y, _ = problem
        Xt = whiten(kernel_factor(spec), U, y)
        with pytest.raises(ValueError, match="read-only"):
            Xt[-1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            Xt *= 2.0

    @pytest.mark.parametrize("work", [False, True], ids=["new_buffer", "work_buffer"])
    def test_g_step_leaves_inputs_unchanged(self, problem, work):
        spec, U, y, tau = problem
        Xt = whiten(kernel_factor(spec), U, y)
        Xt = Xt.copy()  # writable: a write would show, not raise
        inputs = (tau, Xt)
        before = [x.tobytes() for x in inputs]
        buffer = np.empty_like(Xt) if work else None
        gibbs._draw_g(0.7, tau, Xt, np.random.default_rng(69), buffer)
        assert [x.tobytes() for x in inputs] == before

    def test_g_step_perturbs_the_scaled_output_row(self, problem, monkeypatch):
        # the right-hand side solved is that of X' D^{-1/2} with e_N added
        # to its output row, bit for bit: no detour through data units
        spec, U, y, tau = problem
        Xt = whiten(kernel_factor(spec), U, y)
        lam, N, n = 0.7, self.N, self.n
        e = np.random.default_rng(70).standard_normal(N + n)
        solved = []

        def solve(A, b, context):
            solved.append(b)
            return np.linalg.solve(A, b)

        monkeypatch.setattr("stablespline.gibbs.sample_mvn", lambda size, gen: e)
        monkeypatch.setattr("stablespline.gibbs.solve", solve)
        gibbs._draw_g(lam, tau, Xt, np.random.default_rng(71))

        Xs = Xt * (1.0 / np.sqrt(tau))
        Xs[n] = Xt[n] * (1.0 / np.sqrt(tau)) + e[:N]
        _, c = information_system(lam, Xs, "test")
        assert solved[0].tobytes() == (c + e[N:] / np.sqrt(lam)).tobytes()

    def test_conditional_g_leaves_inputs_unchanged(self, problem):
        spec, *inputs = problem
        before = [x.tobytes() for x in inputs]
        U, y, tau = inputs
        conditional_g(0.7, tau, spec, U, y, RngHandle(69))
        assert [x.tobytes() for x in inputs] == before


class TestChainStateIsW:
    """The chain's state is w = L_K^{-1} g: it stores each sweep's w and
    forms its g draws once, after the last sweep."""

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_g_samples_are_w_draws_times_factor(self, monkeypatch, order):
        ds, init = _laplace_problem(order, "wn", 9)
        n, real, draws = init.g_hat.size, gibbs.solve, []

        def solve(A, b, context):
            draws.append(real(A, b, context))
            return draws[-1]

        monkeypatch.setattr(gibbs, "solve", solve)
        _, chain = run_gibbs(ds, GibbsConfig(M=20, M0=10), init, RngHandle(9))
        assert len(draws) == 20
        m, k, _, _ = power_of_two_scaled(build_regressor(ds.u, ds.N, n), ds.y)
        L_K = kernel_factor(KernelSpec(order, init.hyper.beta, n))
        W = np.array(draws)
        # g = L_K w per draw, in data units; two summation orders of an
        # n-term product differ by at most n ulp of sum |L_K| |w|
        reference = np.ldexp(np.array([L_K @ w for w in W]), k - m)
        bound = n * np.finfo(float).eps * np.ldexp(np.abs(W) @ np.abs(L_K).T, k - m)
        assert np.all(np.abs(chain.g_samples - reference) <= bound)


class TestLambdaRateFloor:
    # conditional_lambda's floor is LAMBDA_RATE_FLOOR_FACTOR trace(K) in units
    # of max|g|^2, which is 1 for g = 0.75 e_1.  A stable-spline kernel keeps
    # g'K^{-1}g >= |g|^2 / trace(K) far above 1e-12 trace(K), so these tests
    # set the factor that puts the rate at a given multiple of the floor.
    n = 6
    spec = KernelSpec("first", 0.8, 6)
    g = 0.75 * np.eye(1, 6)[0]

    def _floor_at(self, monkeypatch, ratio):
        """Set the factor so the rate at g is ``ratio`` times the floor; the floor."""
        rate = kernel_quadratic_form(self.spec, self.g) / 2.0
        trace = float(np.trace(build_kernel(self.spec)))
        factor = rate / (ratio * trace)
        monkeypatch.setattr(gibbs, "LAMBDA_RATE_FLOOR_FACTOR", factor)
        return factor * trace

    def _expected(self, rate, seed):
        return 1.0 / sample_gamma(self.n / 2.0 + 1.0, rate, RngHandle(seed).generator())

    def test_rate_below_floor_warns_and_floors(self, monkeypatch):
        floor = self._floor_at(monkeypatch, 0.5)
        with pytest.warns(IllConditionedWarning, match="floored"):
            lam = conditional_lambda(self.g, self.spec, RngHandle(120))
        assert lam == self._expected(floor, 120)

    def test_rate_above_floor_is_used(self, monkeypatch):
        floor = self._floor_at(monkeypatch, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = conditional_lambda(self.g, self.spec, RngHandle(121))
        assert lam == pytest.approx(self._expected(2.0 * floor, 121), rel=1e-10)

    def test_sweep_from_zero_state_floors(self):
        # a chain started at g0 = 0 has w'w = 0 on its first sweep
        rng = np.random.default_rng(122)
        N, n = 40, self.n
        u = rng.standard_normal(N)
        ds = Dataset(u, build_regressor(u, N, n) @ rng.standard_normal(n))
        init = SsmlResult(
            g_hat=np.zeros(n),
            hyper=Hyperparameters(lam=1.0, beta=0.8, sigma2=0.5),
            objective=0.0,
            order="first",
        )
        cfg = GibbsConfig(M=3, M0=1)
        with pytest.warns(IllConditionedWarning, match="floored"):
            _, chain = run_gibbs(ds, cfg, init, RngHandle(123))
        assert np.all(np.isfinite(chain.g_samples))
        assert np.all(chain.lambda_samples > 0)


def test_non_pd_information_form_raises():
    # Identical columns and huge 1/tau: at beta = 1/2, n = 2, L_K's first row
    # is (1/2, 1/2), so U = [1 0] gives Phi identical columns, and
    # A = I/lam + Phi'D^{-1}Phi rounds exactly to 2^42 ones(2, 2) (every
    # value a power of two), whose Cholesky meets a zero pivot.
    U = np.zeros((16, 2))
    U[:, 0] = 1.0
    with pytest.raises(NumericError, match="not positive definite") as info:
        posterior_moments(2.0**30, KernelSpec("first", 0.5, 2), U, np.ones(16), np.full(16, 2.0**-40))
    assert info.value.context == "posterior.posterior_moments"


@pytest.mark.parametrize(
    "call, context",
    [
        (lambda *a: posterior_mean(*a[:4], a[4]), "ssml.posterior_mean"),
        (lambda *a: conditional_g(a[0], a[4], *a[1:4], RngHandle(67)), "gibbs.conditional_g"),
    ],
    ids=["posterior_mean", "conditional_g"],
)
def test_singular_information_form_raises(call, context):
    # the data of test_non_pd_information_form_raises: A rounds exactly to
    # 2^42 ones(2, 2), on which the LU solve meets a zero pivot
    U = np.zeros((16, 2))
    U[:, 0] = 1.0
    with pytest.raises(NumericError, match="singular") as info:
        call(2.0**30, KernelSpec("first", 0.5, 2), U, np.ones(16), np.full(16, 2.0**-40))
    assert info.value.context == context


def test_overflowed_information_form_raises():
    # at beta = 1/2, n = 2, L_K's first column is (1/2, 0), so Phi's first
    # column is (5e199, 0), whose squared norm 2.5e399 overflows the Gram's
    # leading entry; the builder reports it before any factorization
    U = np.array([[1e200, 0.0], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="not finite"):
            posterior_moments(1.0, KernelSpec("first", 0.5, 2), U, np.ones(2), np.ones(2))


@pytest.mark.parametrize(
    "call, context",
    [
        (
            lambda U: posterior_mean(1.0, KernelSpec("first", 0.5, 2), U, np.ones(2), 1.0),
            "ssml.posterior_mean",
        ),
        (
            lambda U: posterior_moments(1.0, KernelSpec("first", 0.5, 2), U, np.ones(2), 1.0),
            "posterior.posterior_moments",
        ),
    ],
    ids=["posterior_mean", "posterior_moments"],
)
def test_failed_factor_names_its_caller(call, context):
    # the Gram overflows; the failure is reported once, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite") as info:
            call(np.array([[1e200, 0.0], [0.0, 1.0]]))
    assert info.value.context == context


SPEC5 = KernelSpec("first", 0.8, 5)


@pytest.mark.parametrize(
    "call, context",
    [
        (lambda U, y, tau: posterior_mean(1.0, SPEC5, U, y, tau), "ssml.posterior_mean"),
        (lambda U, y, tau: posterior_moments(1.0, SPEC5, U, y, tau), "posterior.posterior_moments"),
        (lambda U, y, tau: conditional_g(1.0, tau, SPEC5, U, y, RngHandle(1)), "gibbs.conditional_g"),
        # the moments conditional_g draws from, through the sampler's name for posterior_moments
        (lambda U, y, tau: gibbs.posterior_moments(1.0, SPEC5, U, y, tau), "posterior.posterior_moments"),
    ],
    ids=["posterior_mean", "posterior_moments", "conditional_g", "conditional_g_moments"],
)
def test_scaled_data_overflow_names_its_caller(call, context):
    # a finite y scaled by a noise variance below 1 overflows D^{-1/2} X;
    # the Gram reports it, with no numpy warning
    rng = np.random.default_rng(72)
    U = build_regressor(rng.standard_normal(20), 20, 5)
    y, tau = rng.standard_normal(20), np.full(20, 0.5)
    y[0] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite") as info:
            call(U, y, tau)
    assert info.value.context == context


class TestPosteriorMomentsEdges:
    """The Cholesky of A at the ends of the lambda range, on a low-pass
    regressor (ill-conditioned U'U) and slowly decaying kernels, and at a
    zero output."""

    N, n = 40, 12

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(60)
        U = build_regressor(generate_input("lp", self.N, RngHandle(60)), self.N, self.n)
        return U, rng.standard_normal(self.N), rng.uniform(0.5, 3.0, self.N)

    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("lam", [1e-10, 1e10])
    def test_matches_covariance_form(self, problem, lam, beta):
        U, y, tau = problem
        spec = KernelSpec("first", beta, self.n)
        mean, F = posterior_moments(lam, spec, U, y, tau)

        assert np.all(np.tril(F, -1) == 0.0)
        mean_ref, cov_ref = covariance_posterior(lam, build_kernel(spec), U, y, tau)
        assert np.linalg.norm(mean - mean_ref) <= 1e-8 * np.linalg.norm(mean_ref)
        assert np.linalg.norm(F @ F.T - cov_ref) <= 1e-8 * np.linalg.norm(cov_ref)

    @pytest.mark.parametrize("lam", [1e-10, 1e10])
    def test_factor_triangular_at_sweep_size(self, lam):
        N, n = 500, 50
        U = build_regressor(generate_input("lp", N, RngHandle(61)), N, n)
        tau = np.random.default_rng(61).uniform(0.1, 10.0, N)
        _, F = posterior_moments(lam, KernelSpec("first", 0.99, n), U, np.ones(N), tau)
        assert np.all(np.tril(F, -1) == 0.0)
        assert np.all(np.diag(F) > 0)

    @pytest.mark.parametrize("N", [40, 8])
    def test_zero_output(self, N):
        # y = 0 zeroes c = Phi'D^{-1}y, so the mean L_K R (R'c) is exactly 0
        rng = np.random.default_rng(65)
        U = build_regressor(rng.standard_normal(N), N, self.n)
        tau = rng.uniform(0.5, 3.0, N)
        y = np.zeros(N)
        spec = KernelSpec("first", 0.9, self.n)
        mean, F = posterior_moments(1.0, spec, U, y, tau)

        assert np.all(mean == 0.0)
        _, cov_ref = covariance_posterior(1.0, build_kernel(spec), U, y, tau)
        assert np.linalg.norm(F @ F.T - cov_ref) <= 1e-8 * np.linalg.norm(cov_ref)
        assert np.all(np.isfinite(conditional_g(1.0, tau, spec, U, y, RngHandle(65))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_noise_variance(self, bad):
        d = np.ones(8)
        d[5] = bad
        spec = KernelSpec("first", 0.8, 2)
        with pytest.raises(ConfigError, match="positive and finite"):
            posterior_moments(1.0, spec, np.ones((8, 2)), np.ones(8), d)
        with pytest.raises(ConfigError, match="positive and finite"):
            posterior_moments(1.0, spec, np.ones((8, 2)), np.ones(8), bad)


class TestSweepGuards:
    """The tau and g finiteness guards of the sweep's step functions."""

    N, n = 30, 5

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(62)
        u = rng.standard_normal(self.N)
        U = build_regressor(u, self.N, self.n)
        return Dataset(u, U @ rng.standard_normal(self.n)), U

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_tau_draw_raises(self, problem, monkeypatch, bad):
        ds, U = problem

        def draw(a, b, gen):
            tau = np.ones(b.shape)
            tau[-1] = bad
            return tau

        monkeypatch.setattr("stablespline.gibbs.sample_gig_half", draw)
        with pytest.raises(NumericError, match="tau"):
            conditional_tau(np.zeros(self.n), U, ds.y, 1.0, RngHandle(63))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_g_draw_raises(self, problem, monkeypatch, bad):
        # a bad entry of e_n, the prior's part of the N + n perturbation,
        # passes the Gram and reaches w through the right-hand side
        ds, U = problem
        e = np.ones(self.N + self.n)
        e[self.N + 2] = bad
        monkeypatch.setattr("stablespline.gibbs.sample_mvn", lambda size, gen: e)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite g"):
            conditional_g(1.0, np.ones(self.N), KernelSpec("first", 0.8, self.n), U, ds.y, RngHandle(64))

    def test_chain_non_finite_g_draw_names_sweep(self, monkeypatch):
        # the chain's guard is w'w, the lambda step's statistic, taken
        # right after the g step: a NaN in e_n from sweep 3 on trips it there
        ds, init = _laplace_problem("first", "wn", 9)
        calls = []

        def mvn(size, gen):
            calls.append(None)
            e = np.ones(size)
            e[-1] = np.nan if len(calls) >= 3 else 1.0
            return e

        monkeypatch.setattr("stablespline.gibbs.sample_mvn", mvn)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as info:
            run_gibbs(ds, GibbsConfig(M=10, M0=2), init, RngHandle(65))
        assert info.value.context == "gibbs.conditional_g"
        assert info.value.message == "non-finite g draw at sweep 3"
