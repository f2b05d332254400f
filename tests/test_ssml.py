import warnings
from collections import Counter

import numpy as np
import pytest
from dense_oracle import (
    covariance_posterior,
    covariance_posterior_mean,
    dense_neg_log_marglik,
    lstsq_sigma2,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stablespline import (
    ConfigError,
    Dataset,
    KernelSpec,
    NumericError,
    build_kernel,
    build_regressor,
    fit_score,
    posterior_mean,
    run_ssml,
)
from stablespline import ssml
from stablespline.benchmark import ExperimentConfig, generate_input, simulate
from stablespline.distributions import RngHandle
from stablespline.cli import main as cli_main
from stablespline.fileio import read_dataset
from stablespline.kernels import KernelOrder, kernel_factor
from stablespline.model import Hyperparameters
from stablespline.ssml import (
    LAMBDA_POINTS,
    LAMBDA_SPAN,
    RIDGE_CONDITION_LIMIT,
    SIGMA2_FLOOR_FACTOR,
    IllConditionedWarning,
    LeastSquares,
    MarglikObjective,
    SsmlResult,
    default_beta_grid,
    estimate_sigma2,
    neg_log_marglik,
    optimize_hyperparams,
)


def random_problem(rng, N=40, n=10):
    u = rng.standard_normal(N)
    U = build_regressor(u, N, n)
    g = rng.standard_normal(n)
    return u, U, g


class TestEstimateSigma2:
    def test_noiseless_residual_is_zero(self):
        rng = np.random.default_rng(0)
        _, U, g = random_problem(rng, N=100, n=8)
        y = U @ g
        assert estimate_sigma2(LeastSquares(U, y)) <= 1e-18 * float(y @ y)

    def test_matches_projection_residual_oracle(self):
        rng = np.random.default_rng(1)
        _, U, g = random_problem(rng, N=60, n=6)
        e = rng.standard_normal(60)
        y = U @ g + e
        # independent oracle: residual of the orthogonal projection onto col(U)
        P = U @ np.linalg.inv(U.T @ U) @ U.T
        rss = float(y @ (np.eye(60) - P) @ y)
        expected = rss / (60 - 6)
        assert estimate_sigma2(LeastSquares(U, y)) == pytest.approx(expected, rel=1e-10)

    def test_denominator_one_when_N_is_n_plus_1(self):
        rng = np.random.default_rng(2)
        _, U, g = random_problem(rng, N=7, n=6)
        e = rng.standard_normal(7)
        y = U @ g + e
        g_ls, *_ = np.linalg.lstsq(U, y, rcond=None)
        rss = float(np.sum((y - U @ g_ls) ** 2))
        assert estimate_sigma2(LeastSquares(U, y)) == pytest.approx(rss, rel=1e-12)

    def test_invariant_to_signal_component(self):
        rng = np.random.default_rng(3)
        _, U, _ = random_problem(rng, N=80, n=10)
        e = rng.standard_normal(80)
        g1, g2 = rng.standard_normal((2, 10))
        s1 = estimate_sigma2(LeastSquares(U, U @ g1 + e))
        s2 = estimate_sigma2(LeastSquares(U, U @ g2 + e))
        assert s1 == pytest.approx(s2, rel=1e-10)

    def test_ridge_fallback_warns(self):
        # duplicate columns force an exactly singular normal matrix
        N = 40
        rng = np.random.default_rng(4)
        col = rng.standard_normal(N)
        U = np.column_stack([col, col, rng.standard_normal(N)])
        y = rng.standard_normal(N)
        with pytest.warns(IllConditionedWarning):
            out = estimate_sigma2(LeastSquares(U, y))
        assert np.isfinite(out) and out >= 0.0

    def test_all_zero_input_raises(self):
        # U'U = 0: the ridge scale trace(U'U)/n is 0 and no ridge helps
        U = build_regressor(np.zeros(60), 60, 10)
        y = np.random.default_rng(5).standard_normal(60)
        with pytest.raises(NumericError, match="all-zero input"):
            estimate_sigma2(LeastSquares(U, y))

    def test_matches_lstsq_oracle(self):
        # white-noise and low-pass regressors of many shapes, no ridge
        rng = np.random.default_rng(6)
        for k in range(40):
            n = int(rng.integers(1, 51))
            N = n + int(rng.integers(1, 450))
            U = build_regressor(generate_input(("wn", "lp")[k % 2], N, rng), N, n)
            y = U @ (0.8 ** np.arange(1, n + 1)) + 10 ** rng.uniform(-3, 0) * rng.standard_normal(N)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert estimate_sigma2(LeastSquares(U, y)) == pytest.approx(lstsq_sigma2(U, y), rel=1e-9)

    def test_ridge_matches_lstsq_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            col = rng.standard_normal(40)
            U = np.column_stack([col, col, rng.standard_normal((40, 3))])
            y = rng.standard_normal(40)
            with pytest.warns(IllConditionedWarning):
                expected = lstsq_sigma2(U, y)
            with pytest.warns(IllConditionedWarning, match="adding ridge"):
                assert estimate_sigma2(LeastSquares(U, y)) == pytest.approx(expected, rel=1e-12)

    def test_ridge_threshold_edge(self):
        # U = Q diag(sv) V' with cond(U'U) = (sv_max / sv_min)^2 set just
        # above and just below RIDGE_CONDITION_LIMIT
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((60, 6)))
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        y = rng.standard_normal(60)
        for factor, fires in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
            sv = np.geomspace(1.0, (RIDGE_CONDITION_LIMIT * factor) ** -0.5, 6)
            U = (Q * sv) @ V.T
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                estimate_sigma2(LeastSquares(U, y))
            ridge = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
            assert bool(ridge) == fires
            if fires:
                msg = str(ridge[0].message)
                # the runs CSV joins a run's warnings with ';'
                assert "exceeds 1e+12: adding ridge" in msg and ";" not in msg


class TestLeastSquares:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 15),
        N=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-6.0, 6.0),
        duplicate=st.booleans(),
    )
    def test_reduction_identities(self, n, N, seed, scale, duplicate):
        # R'R = U'U, R'b = U'y and rss + |b|^2 = y'y, with R upper-triangular
        # and rss the least-squares residual; N <= n and repeated columns too
        rng = np.random.default_rng(seed)
        U = 10.0**scale * rng.standard_normal((N, n))
        if duplicate and n > 1:
            U[:, -1] = U[:, 0]
        y = rng.standard_normal(N)
        ls = LeastSquares(U, y)
        assert (ls.N, ls.n, ls.yy) == (N, n, float(y @ y))
        assert ls.R.shape == (min(N, n), n) and ls.b.shape == (min(N, n),)
        assert np.array_equal(np.tril(ls.R, -1), np.zeros_like(ls.R))
        uu, yy = float(np.sum(U * U)), float(y @ y)
        assert np.allclose(ls.R.T @ ls.R, U.T @ U, rtol=0, atol=1e-13 * uu)
        assert np.allclose(ls.R.T @ ls.b, U.T @ y, rtol=0, atol=1e-13 * np.sqrt(uu * yy))
        assert ls.rss >= 0 and ls.rss + ls.b @ ls.b == pytest.approx(yy, rel=1e-13)
        if N <= n:
            assert ls.rss == 0.0
        elif not duplicate:
            g, *_ = np.linalg.lstsq(U, y, rcond=None)
            r = y - U @ g
            assert ls.rss == pytest.approx(float(r @ r), rel=1e-8, abs=1e-13 * yy)


class TestNegLogMarglik:
    def test_lambda_zero_unit_noise(self):
        rng = np.random.default_rng(5)
        _, U, _ = random_problem(rng, N=30, n=5)
        y = rng.standard_normal(30)
        obj = MarglikObjective(LeastSquares(U, y), sigma2=1.0)
        assert neg_log_marglik(0.0, 0.5, obj) == pytest.approx(float(y @ y), rel=1e-12)

    def test_scalar_closed_form(self):
        # N = n = 1: log(1 + 4*0.5) + y^2/3
        U = np.array([[2.0]])
        y = np.array([1.7])
        obj = MarglikObjective(LeastSquares(U, y), sigma2=1.0)
        expected = np.log(3.0) + y[0] ** 2 / 3.0
        assert neg_log_marglik(1.0, 0.5, obj) == pytest.approx(expected, rel=1e-12)

    def test_dual_form_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        cases = []
        for _ in range(10):
            _, U, _ = random_problem(rng, N=40, n=10)
            y = rng.standard_normal(40)
            cases.append((U, y, rng.uniform(0.1, 2.0), rng.uniform(0.01, 10.0),
                          rng.uniform(0.2, 0.95)))
        # lambda 8 decades each side of scale = y'y / tr(UKU'), on kernels
        # with eigenvalues below 1e-12 trace(K)/n, a jitter eps no factor
        # adds any more: at 10^8 a route through a factor of K + eps I
        # would be off by more than 1e-7
        for beta in (0.05, 0.1, 0.3):
            _, U, _ = random_problem(rng, N=40, n=20)
            y = rng.standard_normal(40)
            K = build_kernel(KernelSpec("first", beta, 20))
            scale = float(y @ y) / float(np.trace(U @ K @ U.T))
            cases += [(U, y, 4.0, scale * 1e8, beta), (U, y, 4.0, scale * 1e-8, beta)]
        # N < n: R of U = QR is N x n
        _, U, _ = random_problem(rng, N=8, n=10)
        cases.append((U, rng.standard_normal(8), 0.5, 2.0, 0.8))
        for U, y, s2, lam, beta in cases:
            obj = MarglikObjective(LeastSquares(U, y), sigma2=s2)
            oracle = dense_neg_log_marglik(lam, beta, U, y, s2)
            assert neg_log_marglik(lam, beta, obj) == pytest.approx(oracle, rel=1e-8)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        _, U, _ = random_problem(rng, N=25, n=6)
        y = rng.standard_normal(25)
        perm = rng.permutation(25)
        obj = MarglikObjective(LeastSquares(U, y), sigma2=0.7)
        obj_p = MarglikObjective(LeastSquares(U[perm], y[perm]), sigma2=0.7)
        a = neg_log_marglik(2.0, 0.8, obj)
        b = neg_log_marglik(2.0, 0.8, obj_p)
        assert a == pytest.approx(b, rel=1e-10)


def objective_with_spectrum(s, p, sigma2, rss, beta=0.5):
    """A MarglikObjective whose cached (s, p) at ``beta`` is the given one,
    with eigenvectors I, and rss and y'y = rss + |p|^2 to match: U = [I; 0]
    and y = [p; sqrt(rss)] reduce to R = I, b = p and that rss."""
    n = len(s)
    data = LeastSquares(np.eye(n + 1, n), np.append(p, np.sqrt(rss)))
    obj = MarglikObjective(data, sigma2)
    obj._beta_cache[beta] = (np.asarray(s, dtype=float), np.asarray(p, dtype=float), np.eye(n))
    return obj


class TestLambdaProfile:
    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                st.floats(-1e3, 1e3),
            ),
            min_size=1,
            max_size=12,
        ),
        sigma2=st.floats(1e-4, 1e4),
        rss=st.floats(0.0, 1e4),
    )
    # a grid point wins here, at a lambda whose scalar power 10.0**x[i]
    # differs by one ulp from the array power the grid was evaluated at
    @example(
        terms=[(361.8823285864371, 0.0), (361.8823285864371, 674.9977906608353)],
        sigma2=0.0001,
        rss=0.0,
    )
    def test_profile_reaches_dense_grid_minimum(self, terms, sigma2, rss):
        s, p = (np.array(v) for v in zip(*terms))
        assume(s.sum() > 0)
        obj = objective_with_spectrum(s, p, sigma2, rss)
        # run_ssml's data keep y'y / trace positive (see _profile_lambda);
        # without a centre the Newton iteration does not end
        assume(obj.data.yy / s.sum() > 0)
        value, lam, _ = ssml._profile_lambda(obj, 0.5)
        assert value == float(obj._values(lam, 0.5))
        # the same 81-point grid, and 4001 points across its best cell
        x = np.log10(obj.data.yy / s.sum()) + np.linspace(-LAMBDA_SPAN, LAMBDA_SPAN, LAMBDA_POINTS)
        grid = obj._values(10.0**x, 0.5)
        i = int(np.argmin(grid))
        cell = np.linspace(x[max(i - 1, 0)], x[min(i + 1, LAMBDA_POINTS - 1)], 4001)
        dense = float(obj._values(10.0**cell, 0.5).min())
        assert value <= grid[i]
        assert value <= dense + 1e-9 * abs(dense)
        if 0 < i < LAMBDA_POINTS - 1:
            # a minimum inside the cell is found to far finer than the
            # LAMBDA_TOL step: no point within 1e-3 decades is lower
            x_hat = np.log10(lam)
            near = np.linspace(max(x_hat - 1e-3, cell[0]), min(x_hat + 1e-3, cell[-1]), 2001)
            local = float(obj._values(10.0**near, 0.5).min())
            assert value <= local + 1e-11 * max(1.0, abs(local))

    def test_two_objective_calls_per_beta(self, monkeypatch):
        # one grid call and one call at the refined lambda per beta: a
        # scalar search over lambda would show up here
        calls = Counter()
        values = MarglikObjective._values

        def counting(self, lams, beta):
            calls[beta] += 1
            return values(self, lams, beta)

        monkeypatch.setattr(MarglikObjective, "_values", counting)
        obj = TestOptimizeHyperparams._make_obj(8)
        optimize_hyperparams(obj)
        assert set(calls) == set(obj._beta_cache)
        assert max(calls.values()) <= 2


class TestBetaSlope:
    @settings(max_examples=100, deadline=None)
    @given(
        order=st.sampled_from(["first", "second"]),
        n=st.integers(1, 12),
        extra=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        u_scale=st.floats(-3.0, 3.0),
        y_scale=st.floats(-3.0, 3.0),
        noise=st.floats(-6.0, 1.0),
        beta=st.floats(0.05, 0.95),
    )
    def test_envelope_slope_matches_central_differences(
        self, order, n, extra, seed, u_scale, y_scale, noise, beta
    ):
        # at the profiled lambda, the slope is both the partial derivative in
        # beta and (envelope theorem) the derivative of the profiled objective
        rng = np.random.default_rng(seed)
        N = n + extra
        U = 10.0**u_scale * build_regressor(rng.standard_normal(N), N, n)
        y = 10.0**y_scale * rng.standard_normal(N)
        obj = MarglikObjective(LeastSquares(U, y), float(y @ y) / N * 10.0**noise, order)
        value, lam, on_edge = ssml._profile_lambda(obj, beta)
        assume(not on_edge)
        slope = obj._beta_slope(lam, beta)
        h = 1e-5

        def parts(b):
            # the objective's log-det and quadratic terms at (lam, b)
            s, p, _ = obj._for_beta(b)
            c = lam * s / obj.sigma2
            return np.sum(np.log1p(c)), (obj.data.rss + np.sum(p * p / (1.0 + c))) / obj.sigma2

        (d_hi, q_hi), (d_lo, q_lo) = parts(beta + h), parts(beta - h)
        partial = ((d_hi + q_hi) - (d_lo + q_lo)) / (2 * h)
        profiled = (ssml._profile_lambda(obj, beta + h)[0] - ssml._profile_lambda(obj, beta - h)[0]) / (2 * h)
        # the two terms' slopes may cancel to any small slope; their sizes
        # bound the differences' truncation error, and the objective's terms
        # in absolute value its rounding error
        scale = (abs(d_hi - d_lo) + abs(q_hi - q_lo)) / (2 * h)
        size = N * abs(np.log(obj.sigma2)) + sum(parts(beta))
        tol = 1e-5 * scale + 2e-9 * size
        assert abs(partial - slope) <= tol
        assert abs(profiled - slope) <= tol


class TestBetaSearch:
    @staticmethod
    def _eigendecompositions(monkeypatch, obj):
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        optimize_hyperparams(obj)
        monkeypatch.undo()
        assert len(calls) == len(obj._beta_cache)
        return len(calls)

    def test_eigendecompositions_per_fit(self, monkeypatch, tmp_path):
        # 20 grid betas and a few secant steps; a golden-section search to
        # BETA_TOL would add 17
        assert self._eigendecompositions(monkeypatch, TestOptimizeHyperparams._make_obj(8)) <= 30
        data = tmp_path / "lp.csv"
        code = cli_main([
            "simulate", "--input-kind", "lp", "--seed", "1", "--N", "500",
            "--output", str(data), "--truth", str(tmp_path / "truth.json"),
        ])
        assert code == 0
        ds = read_dataset(data)
        ls = LeastSquares(build_regressor(ds.u, ds.N, 50), ds.y)
        assert self._eigendecompositions(monkeypatch, MarglikObjective(ls, estimate_sigma2(ls))) <= 30

    def test_refines_beyond_the_grid(self):
        # the search ends off the grid, at a local minimum of the profiled
        # objective to within 1e-3 in beta
        obj = TestOptimizeHyperparams._make_obj(8)
        lam_hat, beta_hat = optimize_hyperparams(obj)
        assert beta_hat not in set(default_beta_grid())
        value = ssml._profile_lambda(obj, beta_hat)[0]
        for h in (1e-3, 1e-2):
            assert value <= ssml._profile_lambda(obj, beta_hat - h)[0]
            assert value <= ssml._profile_lambda(obj, beta_hat + h)[0]


class TestOptimizeHyperparams:
    @staticmethod
    def _make_data(seed, N=120, n=12):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(N)
        U = build_regressor(u, N, n)
        L = kernel_factor(KernelSpec("first", 0.8, n))
        g = L @ rng.standard_normal(n)
        return U, U @ g + 0.05 * rng.standard_normal(N)

    @staticmethod
    def _make_obj(seed):
        return MarglikObjective(LeastSquares(*TestOptimizeHyperparams._make_data(seed)), sigma2=0.05**2)

    def test_beats_every_coarse_grid_point(self):
        U, y = self._make_data(8)
        obj = self._make_obj(8)
        lam_hat, beta_hat = optimize_hyperparams(obj)
        val = neg_log_marglik(lam_hat, beta_hat, obj)
        for beta in default_beta_grid():
            K = build_kernel(KernelSpec(obj.order, beta, U.shape[1]))
            scale = float(y @ y) / float(np.trace(U @ K @ U.T))
            for lam in scale * np.logspace(-4, 4, 25):
                assert val <= neg_log_marglik(lam, beta, obj) + 1e-9

    def test_deterministic(self):
        a = optimize_hyperparams(self._make_obj(9))
        b = optimize_hyperparams(self._make_obj(9))
        assert a == b

    def test_beta_recovery_from_prior_draws(self):
        # data generated from the prior at (lam, beta) = (1, 0.85); the
        # 80% hit-rate bound was calibrated by a pilot run of this exact
        # seeded loop (pilot: 50/50 within +-0.1)
        lam_star, beta_star, N, n = 1.0, 0.85, 500, 50
        L = kernel_factor(KernelSpec("first", beta_star, n))
        hits = 0
        reps = 50
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            g = np.sqrt(lam_star) * (L @ rng.standard_normal(n))
            u = rng.standard_normal(N)
            U = build_regressor(u, N, n)
            y0 = U @ g
            s2 = 1e-4 * float(np.var(y0))
            y = y0 + rng.normal(0.0, np.sqrt(s2), N)
            _, beta_hat = optimize_hyperparams(MarglikObjective(LeastSquares(U, y), s2))
            hits += abs(beta_hat - beta_star) <= 0.1
        assert hits >= 0.8 * reps

    def test_lambda_on_span_edge_warns(self):
        # y orthogonal to the columns of U: the objective rises with lambda,
        # so the profiled minimum is the lower end of the lambda grid
        rng = np.random.default_rng(20)
        _, U, _ = random_problem(rng, N=120, n=12)
        v = rng.standard_normal(120)
        Q, _ = np.linalg.qr(U)
        y = v - Q @ (Q.T @ v)
        with pytest.warns(IllConditionedWarning, match="edge of the 10-decade"):
            optimize_hyperparams(MarglikObjective(LeastSquares(U, y), sigma2=float(np.var(y))))
        y = U @ (0.8 ** np.arange(1, 13)) + 0.05 * rng.standard_normal(120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize_hyperparams(MarglikObjective(LeastSquares(U, y), sigma2=0.05**2))

    def test_beta_on_upper_bound_warns(self):
        # an undamped response wants beta -> 1
        rng = np.random.default_rng(21)
        _, U, _ = random_problem(rng, N=120, n=12)
        y = U @ np.ones(12) + 0.01 * rng.standard_normal(120)
        with pytest.warns(IllConditionedWarning, match="beta=0.99 lies on the search bound"):
            _, beta_hat = optimize_hyperparams(MarglikObjective(LeastSquares(U, y), sigma2=1e-4))
        assert beta_hat == pytest.approx(0.99, abs=1e-4)

    def test_beta_on_lower_bound_warns(self):
        # a response that is one impulse at lag 1 wants beta -> 0
        rng = np.random.default_rng(22)
        _, U, _ = random_problem(rng, N=120, n=12)
        y = U[:, 0] + 0.01 * rng.standard_normal(120)
        with pytest.warns(IllConditionedWarning, match="lies on the search bound 0.01$"):
            _, beta_hat = optimize_hyperparams(MarglikObjective(LeastSquares(U, y), sigma2=1e-4))
        assert beta_hat == pytest.approx(0.01, abs=1e-4)


class TestPosteriorMean:
    def test_lambda_zero_gives_zero_vector(self):
        rng = np.random.default_rng(10)
        _, U, _ = random_problem(rng)
        spec = KernelSpec("first", 0.8, 10)
        out = posterior_mean(0.0, spec, U, rng.standard_normal(40), 1.0)
        assert np.array_equal(out, np.zeros(10))

    def test_infinite_noise_shrinks_to_zero(self):
        rng = np.random.default_rng(11)
        _, U, _ = random_problem(rng)
        y = rng.standard_normal(40)
        spec = KernelSpec("first", 0.8, 10)
        out = posterior_mean(1.0, spec, U, y, 1e12 * float(y @ y))
        assert np.all(np.abs(out) <= 1e-4)

    def test_information_equals_covariance_form(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            N, n = 60, 20
            u = rng.standard_normal(N)
            U = build_regressor(u, N, n)
            y = rng.standard_normal(N)
            d = rng.uniform(0.5, 3.0, N)
            lam = rng.uniform(0.1, 5.0)
            spec = KernelSpec("first", rng.uniform(0.4, 0.95), n)
            a = posterior_mean(lam, spec, U, y, d)
            b = covariance_posterior_mean(lam, build_kernel(spec), U, y, d)
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.6])
    def test_second_order_matches_50_digit_oracle(self, beta):
        # criterion 4e's instances (N=45, n=15) with the second-order kernel:
        # its exact factor leaves rounding alone, about 1e-15 relative
        rng = np.random.default_rng(int(100 * beta))
        N, n = 45, 15
        U = build_regressor(rng.standard_normal(N), N, n)
        y, d, lam = rng.standard_normal(N), rng.uniform(0.3, 3.0, N), rng.uniform(0.1, 5.0)
        spec = KernelSpec("second", beta, n)
        ref, _ = covariance_posterior(lam, build_kernel(spec), U, y, d)
        err = np.linalg.norm(posterior_mean(lam, spec, U, y, d) - ref) / np.linalg.norm(ref)
        assert err <= 1e-12

    def test_linear_in_y(self):
        rng = np.random.default_rng(13)
        _, U, _ = random_problem(rng)
        y1, y2 = rng.standard_normal((2, 40))
        spec = KernelSpec("first", 0.7, 10)
        a = posterior_mean(2.0, spec, U, 3.0 * y1 - 0.5 * y2, 0.8)
        b = 3.0 * posterior_mean(2.0, spec, U, y1, 0.8) - 0.5 * posterior_mean(
            2.0, spec, U, y2, 0.8
        )
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


class TestSsmlResult:
    HYPER = Hyperparameters(lam=1.0, beta=0.8, sigma2=0.5)

    def test_order_is_parsed(self):
        res = SsmlResult(np.ones(4), self.HYPER, 0.0, "SECOND")
        assert res.order is KernelOrder.SECOND

    @pytest.mark.parametrize(
        "g_hat, order",
        [(np.ones(4), "bogus"), (np.ones((2, 2)), "first"), (np.ones(0), "first")],
        ids=["unknown_order", "matrix_g_hat", "empty_g_hat"],
    )
    def test_rejects_malformed_model(self, g_hat, order):
        with pytest.raises(ConfigError):
            SsmlResult(g_hat, self.HYPER, 0.0, order)

    def test_run_ssml_records_its_order(self):
        rng = np.random.default_rng(17)
        u = rng.standard_normal(60)
        ds = Dataset(u, build_regressor(u, 60, 6) @ rng.standard_normal(6) + rng.standard_normal(60))
        assert run_ssml(ds, 6, "second").order is KernelOrder.SECOND


class TestRunSsml:
    def test_noiseless_short_fir_recovery(self):
        rng = np.random.default_rng(14)
        n = 50
        g = np.zeros(n)
        g[:8] = [1.0, 0.7, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01]
        u = rng.standard_normal(500)
        U = build_regressor(u, 500, n)
        ds = Dataset(u, U @ g)
        with pytest.warns(IllConditionedWarning, match="below the floor"):
            res = run_ssml(ds, n)
        assert fit_score(g, res.g_hat) >= 99.0

    def _noiseless_fir(self):
        rng = np.random.default_rng(16)
        u = rng.standard_normal(200)
        g = 0.8 ** np.arange(1, 21)
        return Dataset(u, build_regressor(u, 200, 20) @ g)

    def test_sigma2_floor_warns(self):
        ds = self._noiseless_fir()
        floor = SIGMA2_FLOOR_FACTOR * float(np.var(ds.y))
        ls = estimate_sigma2(LeastSquares(build_regressor(ds.u, ds.N, 20), ds.y))
        assert ls < floor
        with pytest.warns(IllConditionedWarning, match="below the floor") as caught:
            res = run_ssml(ds, 20)
        assert res.hyper.sigma2 == floor
        msg = next(str(w.message) for w in caught if "floor" in str(w.message))
        assert f"{ls:.3g}" in msg and f"{floor:.3g}" in msg

    @staticmethod
    def _in_fit_units(ds, sigma2):
        # run_ssml fits on y 2^-k: the estimate it reads is in those units
        k = int(np.frexp(np.max(np.abs(ds.y)))[1])
        return float(np.ldexp(sigma2, -2 * k))

    def test_sigma2_just_below_floor_is_floored(self, monkeypatch):
        ds = self._noiseless_fir()
        floor = SIGMA2_FLOOR_FACTOR * float(np.var(ds.y))
        below = float(np.nextafter(floor, 0.0))
        monkeypatch.setattr(ssml, "estimate_sigma2", lambda ls: self._in_fit_units(ds, below))
        with pytest.warns(IllConditionedWarning, match=f"{below:.3g} is below the floor"):
            res = run_ssml(ds, 20)
        assert res.hyper.sigma2 == floor

    def test_sigma2_at_or_above_floor_is_kept(self, monkeypatch):
        ds = self._noiseless_fir()
        floor = SIGMA2_FLOOR_FACTOR * float(np.var(ds.y))
        for sigma2 in (floor, float(np.nextafter(floor, np.inf))):
            monkeypatch.setattr(
                ssml, "estimate_sigma2", lambda ls: self._in_fit_units(ds, sigma2)
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = run_ssml(ds, 20)
            assert not [w for w in caught if "floor" in str(w.message)]
            assert res.hyper.sigma2 == sigma2

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        u = rng.standard_normal(150)
        U = build_regressor(u, 150, 12)
        g = rng.standard_normal(12)
        y = U @ g + 0.1 * rng.standard_normal(150)
        ds = Dataset(u, y)
        r1 = run_ssml(ds, 12)
        r2 = run_ssml(ds, 12)
        assert np.array_equal(r1.g_hat, r2.g_hat)
        assert r1.hyper == r2.hyper
        assert r1.objective == r2.objective

    @pytest.fixture(scope="class")
    def scale_reference(self):
        ds = simulate(ExperimentConfig(N=200, n=20), RngHandle(4)).dataset
        return ds, run_ssml(ds, 20)

    @pytest.mark.parametrize("i, j", [(0, 400), (0, -400), (-400, 0), (200, -200)])
    def test_fit_is_scale_equivariant(self, scale_reference, i, j):
        # the fit runs on u 2^-m and y 2^-k, which are the same bits for
        # (u 2^i, y 2^j), so every result maps exactly; an unscaled fit moves
        # lambda's grid and Newton start with the data's scale
        ds, ref = scale_reference
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_ssml(Dataset(np.ldexp(ds.u, i), np.ldexp(ds.y, j)), 20)
        assert np.array_equal(res.g_hat, np.ldexp(ref.g_hat, j - i))
        assert res.hyper.lam == np.ldexp(ref.hyper.lam, 2 * (j - i))
        assert res.hyper.sigma2 == np.ldexp(ref.hyper.sigma2, 2 * j)
        assert res.hyper.beta == ref.hyper.beta
        assert res.objective == pytest.approx(ref.objective + ds.N * j * np.log(4.0), rel=1e-12)

    def test_rejects_N_not_greater_than_n(self):
        ds = Dataset(np.ones(10), np.ones(10))
        with pytest.raises(ConfigError):
            run_ssml(ds, 10)

    def test_lowpass_reaches_dense_grid_minimum(self, tmp_path):
        # the optimum of this low-pass dataset lies more than 4 decades of
        # lambda from y'y / tr(UKU'); the grid below evaluates the objective
        # through the eigendecomposition of the N x N matrix U K U'
        data = tmp_path / "lp.csv"
        code = cli_main([
            "simulate", "--input-kind", "lp", "--seed", "1", "--N", "500",
            "--output", str(data), "--truth", str(tmp_path / "truth.json"),
        ])
        assert code == 0
        ds = read_dataset(data)
        res = run_ssml(ds, 50)
        U = build_regressor(ds.u, ds.N, 50)
        y, s2 = ds.y, res.hyper.sigma2

        def dense_eig(beta):
            K = build_kernel(KernelSpec("first", beta, 50))
            m, V = np.linalg.eigh(U @ K @ U.T)
            return np.maximum(m, 0.0), V.T @ y

        def dense_values(m, q, lams):
            d = np.asarray(lams)[:, None] * m + s2
            return np.sum(np.log(d), axis=1) + np.sum(q * q / d, axis=1)

        grid_min = np.inf
        for beta in np.linspace(0.02, 0.98, 49):
            m, q = dense_eig(beta)
            lams = float(y @ y) / m.sum() * np.logspace(-12, 12, 481)
            grid_min = min(grid_min, float(dense_values(m, q, lams).min()))
        m, q = dense_eig(res.hyper.beta)
        assert res.objective == pytest.approx(float(dense_values(m, q, [res.hyper.lam])[0]), rel=1e-8)
        assert res.objective <= grid_min + 0.1
