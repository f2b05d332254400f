import numpy as np
import pytest

from stablespline import (
    ConfigError,
    NumericError,
    KernelOrder,
    KernelSpec,
    build_kernel,
    kernel_factor,
    kernel_quadratic_form,
)
from stablespline.kernels import JITTER_BASE, JITTER_MAX, build_kernel_derivative


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
    def test_diagonal_matrix(self):
        d = np.array([4.0, 9.0, 0.25])
        L = kernel_factor(np.diag(d))
        eps_max = JITTER_MAX * d.sum() / 3
        assert np.allclose(L, np.diag(np.sqrt(d)), atol=np.sqrt(eps_max))
        assert np.all(np.triu(L, 1) == 0.0)

    def test_reconstruction_within_jitter(self):
        K = build_kernel(KernelSpec("second", 0.6, 40))
        L = kernel_factor(K)
        eps_max = JITTER_MAX * np.trace(K) / 40
        dev = np.abs(L @ L.T - K).max()
        assert dev <= eps_max + 1e-12 * np.linalg.norm(K)

    def test_first_order_large_n_strictly_pd(self):
        # first-order kernel is strictly PD for 0 < beta < 1, so the base
        # jitter suffices: the plain Cholesky already succeeds
        K = build_kernel(KernelSpec("first", 0.9, 50))
        np.linalg.cholesky(K)
        L = kernel_factor(K)
        eps_base = JITTER_BASE * np.trace(K) / 50
        assert np.abs(L @ L.T - K).max() <= eps_base + 1e-12 * np.linalg.norm(K)

    def test_degenerate_kernel_errors(self):
        K = build_kernel(KernelSpec("first", 0.0, 4))
        with pytest.raises(NumericError):
            kernel_factor(K)
        with pytest.raises(NumericError):
            kernel_quadratic_form(K, np.ones(4))


class TestKernelQuadraticForm:
    def test_identity_injection(self):
        assert kernel_quadratic_form(np.eye(2), [3.0, 4.0]) == pytest.approx(25.0)

    def test_zero_vector(self):
        K = build_kernel(KernelSpec("first", 0.5, 3))
        assert kernel_quadratic_form(K, np.zeros(3)) == 0.0

    def test_matches_dense_solve_oracle(self):
        K = build_kernel(KernelSpec("first", 0.5, 2))
        g = np.array([1.0, 1.0])
        x = np.linalg.solve(K, g)
        assert kernel_quadratic_form(K, g) == pytest.approx(float(g @ x), rel=1e-10)

    def test_dense_oracle_random_specs(self):
        # restricted to well-conditioned kernels: for near-singular K the
        # jitter ladder intentionally departs from the bare inverse
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            beta = rng.uniform(0.55, 0.95)
            K = build_kernel(KernelSpec("first", beta, n))
            g = rng.standard_normal(n)
            oracle = float(g @ np.linalg.solve(K, g))
            assert kernel_quadratic_form(K, g) == pytest.approx(oracle, rel=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        K = build_kernel(KernelSpec("second", 0.85, 12))
        for _ in range(50):
            assert kernel_quadratic_form(K, rng.standard_normal(12)) >= 0.0
