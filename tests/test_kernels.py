import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablespline import (
    ConfigError,
    NumericError,
    KernelOrder,
    KernelSpec,
    build_kernel,
    kernel_factor,
    kernel_quadratic_form,
)
from stablespline.kernels import build_kernel_derivative, kernel_solve


class TestBuildKernel:
    def test_returns_read_only_array(self):
        for order in ("first", "second"):
            K = build_kernel(KernelSpec(order, 0.7, 6))
            assert type(K) is np.ndarray and K.dtype == float and K.shape == (6, 6)
            assert not K.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                K[0, 0] = 1.0

    def test_first_order_entries(self):
        K = build_kernel(KernelSpec("first", 0.5, 2))
        assert np.array_equal(K, [[0.5, 0.25], [0.25, 0.25]])

    def test_first_order_beta_zero_is_zero_matrix(self):
        K = build_kernel(KernelSpec("first", 0.0, 5))
        assert np.array_equal(K, np.zeros((5, 5)))

    def test_second_order_beta_near_one_limit(self):
        K = build_kernel(KernelSpec("second", 1.0 - 1e-9, 5))
        assert np.allclose(K, 1.0 / 3.0, atol=1e-7)

    def test_second_order_formula(self):
        beta, n = 0.7, 4
        K = build_kernel(KernelSpec("second", beta, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                m = max(i, j)
                expected = beta ** (i + j) * beta**m / 2.0 - beta ** (3 * m) / 6.0
                assert K[i - 1, j - 1] == pytest.approx(expected, rel=1e-15)

    def test_symmetry_bitwise(self):
        for order in ("first", "second"):
            K = build_kernel(KernelSpec(order, 0.83, 17))
            assert np.array_equal(K, K.T)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ConfigError):
            KernelSpec("first", 1.0, 3)
        with pytest.raises(ConfigError):
            KernelSpec("first", -0.1, 3)

    def test_first_order_diagonal_strictly_decreasing(self):
        K = build_kernel(KernelSpec("first", 0.9, 30))
        d = np.diag(K)
        assert np.all(np.diff(d) < 0)

    def test_psd_property_200_random_specs(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            order = KernelOrder.FIRST if rng.random() < 0.5 else KernelOrder.SECOND
            beta = rng.uniform(0.01, 0.99)
            n = int(rng.integers(1, 61))
            K = build_kernel(KernelSpec(order, beta, n))
            floor = -1e-10 * np.trace(K) / n
            assert np.linalg.eigvalsh(K).min() >= floor

    def test_gathered_powers_match_float_power_bitwise(self):
        # build_kernel gathers beta^k through the index arrays; the matrix
        # must be the elementwise np.float_power over those arrays, bit for bit
        rng = np.random.default_rng(11)
        betas = [0.0, 0.01, 0.5, 0.99, *rng.uniform(0.0, 1.0, 20)]
        for n in (1, 2, 17, 50):
            idx = np.arange(1, n + 1)
            m = np.maximum.outer(idx, idx)
            s = np.add.outer(idx, idx)
            for beta in betas:
                first = build_kernel(KernelSpec("first", beta, n))
                second = build_kernel(KernelSpec("second", beta, n))
                assert np.array_equal(first, np.float_power(beta, m))
                assert np.array_equal(
                    second,
                    np.float_power(beta, s + m) / 2.0 - np.float_power(beta, 3 * m) / 6.0,
                )

    def test_second_order_entries_nonnegative(self):
        for beta in np.linspace(0.0, 0.99, 34):
            K = build_kernel(KernelSpec("second", beta, 25))
            assert np.all(K >= 0.0)


class TestBuildKernelDerivative:
    def test_matches_central_differences(self):
        h = 1e-6
        for order in ("first", "second"):
            for beta in (0.01, 0.3, 0.75, 0.99 - h):
                dK = build_kernel_derivative(KernelSpec(order, beta, 12))
                hi = build_kernel(KernelSpec(order, beta + h, 12))
                lo = build_kernel(KernelSpec(order, beta - h, 12))
                assert np.allclose(dK, (hi - lo) / (2 * h), rtol=1e-6, atol=1e-10)

    def test_entries(self):
        beta, n = 0.7, 4
        first = build_kernel_derivative(KernelSpec("first", beta, n))
        second = build_kernel_derivative(KernelSpec("second", beta, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                m, e = max(i, j), i + j + max(i, j)
                assert first[i - 1, j - 1] == pytest.approx(m * beta ** (m - 1), rel=1e-15)
                expected = e * beta ** (e - 1) / 2.0 - 3 * m * beta ** (3 * m - 1) / 6.0
                assert second[i - 1, j - 1] == pytest.approx(expected, rel=1e-14)

    def test_symmetric_and_defined_at_zero(self):
        for order in ("first", "second"):
            dK = build_kernel_derivative(KernelSpec(order, 0.0, 6))
            assert np.array_equal(dK, dK.T) and np.all(np.isfinite(dK))
        # d(beta^1)/dbeta = 1 at the first lag; every higher power has slope 0
        dK = build_kernel_derivative(KernelSpec("first", 0.0, 3))
        assert np.array_equal(dK, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


class TestKernelFactor:
    def test_second_order_reconstruction_without_cholesky(self, monkeypatch):
        # the second-order factor is the closed form: upper-triangular, no
        # Cholesky, and K to the rounding of the product L L^T (n + 4 eps)
        n = 40
        K = build_kernel(KernelSpec("second", 0.6, n))
        monkeypatch.setattr(np.linalg, "cholesky", None)
        L = kernel_factor(KernelSpec("second", 0.6, n))
        assert np.all(np.tril(L, -1) == 0.0) and np.all(np.diagonal(L) > 0)
        assert np.abs(L @ L.T - K).max() <= (n + 4) * np.finfo(float).eps * K.max()

    def test_first_order_large_n_strictly_pd(self, monkeypatch):
        # the first-order kernel is strictly PD for 0 < beta < 1, and its
        # closed-form factor reproduces it to rounding, with no Cholesky
        K = build_kernel(KernelSpec("first", 0.9, 50))
        np.linalg.cholesky(K)
        monkeypatch.setattr(np.linalg, "cholesky", None)
        L = kernel_factor(KernelSpec("first", 0.9, 50))
        assert np.all(np.tril(L, -1) == 0.0)
        assert np.abs(L @ L.T - K).max() <= 4 * np.finfo(float).eps * K.max()

    def test_degenerate_kernel_errors(self):
        for order in ("first", "second"):
            with pytest.raises(NumericError):
                kernel_factor(KernelSpec(order, 0.0, 4))
            with pytest.raises(NumericError):
                kernel_quadratic_form(KernelSpec(order, 0.0, 4), np.ones(4))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(beta=st.floats(0.01, 0.99), n=st.integers(1, 500))
    @example(beta=0.01, n=500)
    @example(beta=0.99, n=500)
    @example(beta=0.05, n=100)
    def test_second_order_closed_form_factors(self, beta, n):
        # over the decays the fit searches: every entry finite, zero columns
        # exactly where the diagonal is not a normal float, and K to the
        # rounding of the product L L^T
        spec = KernelSpec("second", beta, n)
        K = build_kernel(spec)
        L = kernel_factor(spec)
        diag = np.diagonal(L)
        assert np.isfinite(L).all() and np.all(np.tril(L, -1) == 0.0)
        assert np.all((diag == 0.0) | (diag >= np.finfo(float).tiny))
        assert not L[:, diag == 0.0].any() and diag[0] > 0
        assert np.abs(L @ L.T - K).max() <= (n + 4) * np.finfo(float).eps * K.max()


def mp_first_order(beta, n):
    """sqrt(v_l) of the first-order factor in mpmath: v_l = beta^l (1 - beta)
    for l < n and v_n = beta^n."""
    b = mpmath.mpf(beta)
    return [mpmath.sqrt(b**l * (1 - b) if l < n else b**n) for l in range(1, n + 1)]


class TestFirstOrderFactorReference:
    """The closed-form factor L = T diag(sqrt(v)), w = L^{-1} g and g'K^{-1}g
    against 50-digit mpmath.  At beta = 0.01, n = 500, 339 of the v_l
    underflow to 0: those columns of L are zero and those entries of w are
    0.  g is a prior draw L z cut to 0 where v_l is not a normal float, so
    every difference g_l - g_{l+1} that the double computation divides is
    divided by a normal sqrt(v_l)."""

    EPS = np.finfo(float).eps
    CASES = [(0.01, 500), (0.01, 40), (0.3, 200), (0.5, 50), (0.8, 500), (0.95, 120),
             (0.99, 500), (0.99, 1), (0.6, 2)]

    @pytest.mark.parametrize("beta, n", CASES)
    def test_against_mpmath(self, beta, n):
        spec = KernelSpec("first", beta, n)
        L = kernel_factor(spec)
        with mpmath.workdps(50):
            sq = mp_first_order(beta, n)
            root = np.array([float(x) for x in sq])
            # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), and v_l is held to 2^-1075
            ok = np.abs(np.diagonal(L) - root) <= 4 * self.EPS * root + 2.0**-537
            assert ok.all()
            assert np.array_equal(L, np.triu(np.broadcast_to(np.diagonal(L), (n, n))))
            if beta == 0.01 and n == 500:
                assert np.count_nonzero(np.diagonal(L) == 0.0) == 339

            normal = np.float_power(beta, np.arange(1, n + 1)) * (1 - beta) >= np.finfo(float).tiny
            g = L @ np.random.default_rng(n).standard_normal(n)
            g[~normal] = 0.0
            w = kernel_solve(spec, L, g)
            gm = [mpmath.mpf(float(x)) for x in g] + [mpmath.mpf(0)]
            w_ref = [(gm[i] - gm[i + 1]) / sq[i] for i in range(n)]
            err = [abs(mpmath.mpf(float(w[i])) - w_ref[i]) for i in range(n)]
            assert all(e <= 4 * self.EPS * abs(r) for e, r in zip(err, w_ref))
            quad = sum(x * x for x in w_ref)
            assert abs(kernel_quadratic_form(spec, g) - quad) <= 8 * self.EPS * quad

    @pytest.mark.parametrize("beta", [0.01, 0.4, 0.9])
    def test_reference_is_the_kernel(self, beta):
        # the reference's closed form against K and K^{-1} themselves, in mpmath
        n = 12
        with mpmath.workdps(50):
            sq = mp_first_order(beta, n)
            K = mpmath.matrix(n, n)
            L = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    K[i, j] = mpmath.mpf(beta) ** (max(i, j) + 1)
                    L[i, j] = sq[j] if j >= i else 0
            assert mpmath.mnorm(L * L.T - K, 1) <= mpmath.mpf(10) ** -45
            g = mpmath.matrix(np.random.default_rng(1).standard_normal(n).tolist())
            x = mpmath.lu_solve(K, g)
            quad = sum((g[i] - (g[i + 1] if i + 1 < n else 0)) ** 2 / sq[i] ** 2 for i in range(n))
            assert abs((g.T * x)[0] - quad) <= mpmath.mpf(10) ** -40 * quad


def mp_second_order(beta, n):
    """(s, sqrt(d), r) of the second-order factor in mpmath, by the recursion
    in its unscaled form: s_k = beta^k; d_n = s_n^3/3, r_n = 3/(2 s_n) and
    p = s_n/4; for k < n, with D = s_k - s_{k+1}, d_k = D^2 p + D^3/3,
    r_k = (D p + D^2/2)/d_k, then p <- D (4p + D) / (4 (3p + D)).  The factor
    is L_kj = sqrt(d_j) (1 + (s_k - s_j) r_j) for k <= j."""
    b = mpmath.mpf(beta)
    s = [b**k for k in range(1, n + 1)]
    d, r, p = [None] * n, [None] * n, s[-1] / 4
    d[-1], r[-1] = s[-1] ** 3 / 3, 3 / (2 * s[-1])
    for k in range(n - 2, -1, -1):
        D = s[k] - s[k + 1]
        d[k] = D * D * p + D**3 / 3
        r[k] = (D * p + D * D / 2) / d[k]
        p = D * (4 * p + D) / (4 * (3 * p + D))
    return s, [mpmath.sqrt(x) for x in d], r


def mp_second_kernel(beta, i, k):
    """K_ik of the second order, 0-based, from its defining formula."""
    b, m = mpmath.mpf(beta), max(i, k) + 1
    return b ** (i + k + 2 + m) / 2 - b ** (3 * m) / 6


class TestSecondOrderFactorReference:
    """The closed-form second-order factor, w = L^{-1} g and g'K^{-1}g
    against mpmath at 40 digits.

    L L^T is summed exactly from the double entries of L and compared with
    K from its defining formula, on every pair of a set of rows that holds
    both ends, the middle and the last columns kept: within 8 eps max K.
    g = L_ref z is rounded from a 40-digit prior draw with z standard normal
    and cut to 0 from the first column whose diagonal is below 4 x the
    least normal float, so g is a vector the double factor can represent.
    Rounding g perturbs each g_k by eps relative, which w = L^{-1} g
    amplifies by about (1 - beta)^(-5/2) <= 1e5 at beta <= 0.99: w is held
    to 1e-9 absolute and g'K^{-1}g = z'z to 1e-8 relative.  At beta = 0.01,
    n = 200 and beta = 0.3, n = 500 the prior variance underflows: 98 and
    109 columns of L are zero."""

    EPS = np.finfo(float).eps
    TINY = np.finfo(float).tiny
    CASES = [(0.01, 1), (0.99, 1), (0.6, 2), (0.01, 2), (0.05, 20), (0.5, 20), (0.99, 20),
             (0.01, 50), (0.3, 50), (0.8, 50), (0.95, 50), (0.01, 200), (0.5, 200),
             (0.99, 200), (0.3, 500), (0.8, 500), (0.99, 500)]

    @pytest.mark.parametrize("beta, n", CASES)
    def test_against_mpmath(self, beta, n):
        spec = KernelSpec("second", beta, n)
        L = kernel_factor(spec)
        assert np.isfinite(L).all() and np.all(np.tril(L, -1) == 0.0)
        with mpmath.workdps(40):
            s, sd, r = mp_second_order(beta, n)
            # L_jj = sqrt(d_j): a column is kept up to the first diagonal near
            # the least normal float, and zero where its diagonal is well below
            cut = next((j for j in range(n) if sd[j] < 4 * self.TINY), n)
            kept = np.diagonal(L) > 0
            assert kept[:cut].all()
            assert not L[:, [j for j in range(n) if sd[j] < self.TINY / 2]].any()
            if (beta, n) in ((0.01, 200), (0.3, 500)):
                assert np.count_nonzero(~kept) == {200: 98, 500: 109}[n]

            rows = sorted({0, 1, 2, n // 4, n // 2, 3 * n // 4, cut - 2, cut - 1, cut,
                           n - 3, n - 2, n - 1} & set(range(n)))
            mp_rows = {i: [mpmath.mpf(float(x)) for x in L[i]] for i in rows}
            kmax = mp_second_kernel(beta, 0, 0)
            for a, i in enumerate(rows):
                for k in rows[a:]:
                    err = abs(mpmath.fdot(mp_rows[i], mp_rows[k]) - mp_second_kernel(beta, i, k))
                    assert err <= 8 * self.EPS * kmax, (i, k, float(err / kmax))

            z = np.random.default_rng(n).standard_normal(n)
            z[cut:] = 0.0
            # g_k = sum_{j >= k} sqrt(d_j) (1 - s_j r_j) z_j + s_k sum_{j >= k} sqrt(d_j) r_j z_j
            g, A, B = np.zeros(n), mpmath.mpf(0), mpmath.mpf(0)
            for k in range(n - 1, -1, -1):
                A += sd[k] * (1 - s[k] * r[k]) * z[k]
                B += sd[k] * r[k] * z[k]
                g[k] = float(A + s[k] * B)
            w = kernel_solve(spec, L, g)
            assert np.abs(w - z).max() <= 1e-9
            quad = float(z @ z)
            assert abs(kernel_quadratic_form(spec, g) - quad) <= 1e-8 * quad

    @pytest.mark.parametrize("beta", [0.01, 0.4, 0.9, 0.99])
    def test_reference_is_the_kernel(self, beta):
        # the reference's recursion against K's defining formula, in mpmath
        n = 12
        with mpmath.workdps(50):
            s, sd, r = mp_second_order(beta, n)
            L = mpmath.matrix(n, n)
            for k in range(n):
                for j in range(k, n):
                    L[k, j] = sd[j] * (1 + (s[k] - s[j]) * r[j])
            LLt = L * L.T
            for i in range(n):
                for k in range(n):
                    K = mp_second_kernel(beta, i, k)
                    assert abs(LLt[i, k] - K) <= mpmath.mpf(10) ** -40 * K


class TestKernelQuadraticForm:
    def test_closed_form_value(self):
        # beta = 1/2, n = 2: v = (1/4, 1/4), so w = (2 (g_1 - g_2), 2 g_2)
        assert kernel_quadratic_form(KernelSpec("first", 0.5, 2), [3.0, 4.0]) == 68.0

    def test_zero_vector(self):
        assert kernel_quadratic_form(KernelSpec("first", 0.5, 3), np.zeros(3)) == 0.0

    def test_matches_dense_solve_oracle(self):
        K = build_kernel(KernelSpec("first", 0.5, 2))
        g = np.array([1.0, 1.0])
        x = np.linalg.solve(K, g)
        spec = KernelSpec("first", 0.5, 2)
        assert kernel_quadratic_form(spec, g) == pytest.approx(float(g @ x), rel=1e-10)

    def test_dense_oracle_random_specs(self):
        # restricted to well-conditioned kernels, where the dense solve is
        # itself an accurate oracle
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            beta = rng.uniform(0.55, 0.95)
            K = build_kernel(KernelSpec("first", beta, n))
            g = rng.standard_normal(n)
            oracle = float(g @ np.linalg.solve(K, g))
            spec = KernelSpec("first", beta, n)
            assert kernel_quadratic_form(spec, g) == pytest.approx(oracle, rel=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        spec = KernelSpec("second", 0.85, 12)
        for _ in range(50):
            assert kernel_quadratic_form(spec, rng.standard_normal(12)) >= 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigError, match=r"^g must have shape \(3,\)"):
            kernel_quadratic_form(KernelSpec("first", 0.5, 3), np.ones(4))
