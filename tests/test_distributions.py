import numpy as np
import pytest
from gig_oracle import gig_pdf_half, inverse_gaussian_gig_half
from scipy import integrate, stats

from stablespline import ConfigError
from stablespline.distributions import (
    RngHandle,
    sample_gamma,
    sample_gig_half,
    sample_mvn,
    sample_noise_mixture,
)


def gig_mean(a, b):
    # closed-form E[tau] for p = 1/2 via the Bessel ratio K_{3/2}/K_{1/2}
    return np.sqrt(b / a) * (1.0 + 1.0 / np.sqrt(a * b))


class TestRngHandle:
    def test_identical_handles_reproduce_bitwise(self):
        h = RngHandle(123, stream=4)
        a = h.generator().standard_normal(1000)
        b = h.generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngHandle(123, stream=0).generator().standard_normal(100)
        b = RngHandle(123, stream=1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_children_differ_from_parent_and_siblings(self):
        h = RngHandle(7)
        draws = [
            h.generator().standard_normal(50),
            h.child(0).generator().standard_normal(50),
            h.child(1).generator().standard_normal(50),
        ]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            RngHandle(-1)


def gamma_draws(shape, rate, seed, size, scalar=1000):
    """``size`` Gamma(shape, rate) draws on the stream RngHandle(seed): the
    first ``scalar`` by scalar ``sample_gamma`` calls, checked bitwise against
    one vectorized draw of the same stream, whose continuation gives the
    rest."""
    gen, ref = RngHandle(seed).generator(), RngHandle(seed).generator()
    x = np.array([sample_gamma(shape, rate, gen) for _ in range(scalar)])
    v = ref.gamma(shape, 1.0 / rate, size=scalar)
    assert x.tobytes() == v.tobytes()
    return np.concatenate([v, ref.gamma(shape, 1.0 / rate, size=size - scalar)])


class TestSampleGamma:
    def test_mean(self):
        x = gamma_draws(2.0, 4.0, 20, 100_000)
        se = np.sqrt(2.0 / 16.0 / x.size)
        assert abs(x.mean() - 0.5) <= 4 * se

    def test_exponential_cdf_special_case(self):
        x = gamma_draws(1.0, 1.0, 21, 100_000)
        assert abs(np.mean(x <= 1.0) - (1 - np.exp(-1))) <= 0.01

    def test_variance(self):
        x = gamma_draws(26.0, 7.3, 22, 100_000)
        target = 26.0 / 7.3**2
        assert abs(x.var() - target) <= 0.05 * target

    def test_positive_support(self):
        x = gamma_draws(0.4, 2.0, 23, 10_000)
        assert np.all(x > 0) and np.all(np.isfinite(x))


class TestSampleGigHalf:
    def test_mean_a2_b2(self):
        x = sample_gig_half(2.0, np.full(100_000, 2.0), RngHandle(30).generator())
        # closed form 1.5, cross-checked by quadrature of the density
        m_quad, _ = integrate.quad(
            lambda t: t * gig_pdf_half(t, 2.0, 2.0), 0, np.inf, limit=200
        )
        assert m_quad == pytest.approx(1.5, abs=1e-9)
        assert abs(x.mean() - 1.5) <= 0.01 * 1.5

    def test_b_zero_and_subnormal_gamma_limit(self):
        # GIG(a, 0, 1/2) is Gamma(1/2, rate a/2); a subnormal b is within
        # rounding of it
        a = 4.0
        for i, b in enumerate([0.0, 5e-324, 1e-310]):
            x = sample_gig_half(a, np.full(200_000, b), RngHandle(31, stream=i).generator())
            res = stats.kstest(x, stats.gamma(0.5, scale=2.0 / a).cdf)
            assert res.pvalue > 0.001, (b, res)

    def test_vectorized_b_matches_support(self):
        b = np.concatenate([np.zeros(5), np.full(5, 2.0)])
        x = sample_gig_half(3.0, b, RngHandle(32).generator())
        assert x.shape == (10,)
        assert np.all(x > 0) and np.all(np.isfinite(x))

    def test_moment_oracle_across_settings(self):
        for i, (a, b) in enumerate([(2.0, 2.0), (20.0, 0.25), (0.5, 9.0)]):
            x = sample_gig_half(a, np.full(100_000, b), RngHandle(33, stream=i).generator())
            m_quad, _ = integrate.quad(
                lambda t: t * gig_pdf_half(t, a, b), 0, np.inf, limit=200
            )
            assert abs(x.mean() - m_quad) <= 0.01 * m_quad

    def test_ks_against_inverse_cdf_of_density(self):
        # numerically invert the CDF of gig_pdf_half and compare samples
        for i, (a, b) in enumerate([(2.0, 2.0), (20.0, 0.25), (5.0, 1.0)]):
            x = sample_gig_half(a, np.full(20_000, b), RngHandle(34, stream=i).generator())
            hi = np.quantile(x, 0.9999) * 4
            grid = np.linspace(1e-9, hi, 20_001)
            pdf = gig_pdf_half(grid, a, b)
            cdf = np.concatenate([[0.0], integrate.cumulative_trapezoid(pdf, grid)])
            cdf /= cdf[-1]
            u = RngHandle(35, stream=i).generator().uniform(size=20_000)
            ref = np.interp(u, cdf, grid)
            res = stats.ks_2samp(x, ref)
            assert res.pvalue > 0.001, (a, b, res)


def _same_draws(a, b, seed):
    """The sampler and its frozen oracle agree bit for bit at ``b``, and
    leave the generator at the same point."""
    gen, ref_gen = RngHandle(seed).generator(), RngHandle(seed).generator()
    x = sample_gig_half(a, b, gen)
    ref = inverse_gaussian_gig_half(a, b, ref_gen)
    assert x.shape == np.shape(b)
    assert np.array_equal(x, ref)
    assert np.array_equal(gen.random(4), ref_gen.random(4))
    return x


# b at and next to 0: exactly 0, the least subnormal (b/a rounds to 0), a
# larger subnormal, and a normal far below the scale of a squared residual
TINY_B = {"zero": 0.0, "min_subnormal": 5e-324, "subnormal": 1e-310, "tiny": 1e-13}


class TestSampleGigHalfPaths:
    a = 4.0

    def test_array_above_floor_matches_oracle(self):
        rng = np.random.default_rng(40)
        _same_draws(self.a, rng.exponential(size=500), 41)
        _same_draws(self.a, rng.exponential(size=(7, 9)), 42)

    def test_scalar_matches_oracle(self):
        # a scalar b is drawn as a constant array of it
        _same_draws(self.a, np.full(1000, 0.3), 43)
        _same_draws(self.a, np.full(1, 0.3), 44)
        assert _same_draws(self.a, np.full(0, 0.3), 45).shape == (0,)

    def test_b_zero_is_scaled_squared_normal(self):
        # at b = 0 the draw is z^2/a exactly, and the uniform is still drawn
        gen, ref_gen = RngHandle(46).generator(), RngHandle(46).generator()
        x = sample_gig_half(self.a, np.zeros(200), gen)
        assert np.array_equal(x, ref_gen.standard_normal(200) ** 2 / self.a)
        ref_gen.uniform(size=200)
        assert np.array_equal(gen.random(4), ref_gen.random(4))

    @pytest.mark.parametrize("b", TINY_B.values(), ids=TINY_B.keys())
    def test_tiny_b_matches_oracle(self, b):
        _same_draws(self.a, np.full(1, b), 47)
        assert np.all(_same_draws(self.a, np.full(200, b), 47) > 0)

    def test_mixed_arrays_match_oracle(self):
        # zero and subnormal entries among positive ones
        rng = np.random.default_rng(48)
        for i, n_low in enumerate([1, 17, 199]):
            b = rng.exponential(size=200)
            b[rng.choice(200, n_low, replace=False)] = rng.choice(list(TINY_B.values()), n_low)
            _same_draws(self.a, b, 49 + i)
        _same_draws(self.a, np.array([[0.0, 5e-324], [2.0, 0.0]]), 52)

    def test_empty_b(self):
        assert sample_gig_half(self.a, np.array([]), RngHandle(55).generator()).shape == (0,)


class TestGigPdfHalf:
    def test_normalization_by_quadrature(self):
        val, err = integrate.quad(
            lambda t: gig_pdf_half(t, 20.0, 0.04), 0, np.inf, limit=200
        )
        assert err <= 1e-8
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_normalization_benchmark_setting(self):
        # a = 2/sigma2 with sigma2 = 0.1, b = residual^2 = 0.25
        val, _ = integrate.quad(
            lambda t: gig_pdf_half(t, 2.0 / 0.1, 0.25), 0, np.inf, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_scale_mixture_reproduces_laplace(self):
        sigma2 = 1.0
        for v in (0.1, 1.0, 3.0):
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
            assert mix == pytest.approx(lap, abs=1e-6)

    def test_proportional_to_kernel(self):
        a, b = 3.0, 0.7
        taus = np.array([0.05, 0.3, 1.0, 2.5, 10.0])
        kernel = taus ** (-0.5) * np.exp(-0.5 * (a * taus + b / taus))
        ratio = gig_pdf_half(taus, a, b) / kernel
        assert np.all(np.abs(ratio / ratio[0] - 1.0) <= 1e-10)

    def test_matches_scipy_bessel_normalizer(self):
        from scipy.special import kv

        a, b = 6.0, 0.9
        t = np.array([0.2, 1.1])
        norm = (a / b) ** 0.25 / (2 * kv(0.5, np.sqrt(a * b)))
        expected = norm * t ** (-0.5) * np.exp(-0.5 * (a * t + b / t))
        assert np.allclose(gig_pdf_half(t, a, b), expected, rtol=1e-12)

    def test_domain_violations(self):
        with pytest.raises(ConfigError):
            gig_pdf_half(-1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            gig_pdf_half(1.0, 1.0, 0.0)


class TestSampleMvn:
    def test_identity_covariance(self):
        gen = RngHandle(41).generator()
        draws = np.array([sample_mvn(2, gen) for _ in range(3000)])
        cov = np.cov(draws.T)
        assert np.abs(cov - np.eye(2)).max() <= 0.08


class TestNoiseMixture:
    def test_single_nominal_component(self):
        v, _ = sample_noise_mixture(100_000, 1.0, 1.0, 100.0, RngHandle(60))
        assert abs(v.var() - 1.0) <= 0.03

    def test_mixture_variance(self):
        v, _ = sample_noise_mixture(100_000, 1.0, 0.7, 100.0, RngHandle(61))
        target = 0.7 + 0.3 * 100.0
        assert abs(v.var() - target) <= 0.05 * target

    def test_all_outlier_component(self):
        v, _ = sample_noise_mixture(100_000, 1.0, 0.0, 100.0, RngHandle(62))
        assert abs(v.var() - 100.0) <= 0.05 * 100.0

    def test_outlier_mask(self):
        _, mask = sample_noise_mixture(5000, 1.0, 1.0, 100.0, RngHandle(63))
        assert not mask.any()
        _, mask0 = sample_noise_mixture(5000, 1.0, 0.0, 100.0, RngHandle(64))
        assert mask0.all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            sample_noise_mixture(0, 1.0, 0.5, 100.0, RngHandle(0))
        with pytest.raises(ConfigError):
            sample_noise_mixture(10, 1.0, 1.5, 100.0, RngHandle(0))


class TestDeterminism:
    def test_every_sampler_reproduces_with_same_handle(self):
        h = RngHandle(99, stream=3)
        b = np.ones(100)
        for draw in (
            lambda gen: [sample_gamma(2.0, 3.0, gen) for _ in range(100)],
            lambda gen: sample_gig_half(2.0, b, gen),
            lambda gen: sample_mvn(3, gen),
        ):
            assert np.array_equal(draw(h.generator()), draw(h.generator()))
        for x, y in zip(
            sample_noise_mixture(100, 1.0, 0.7, 100.0, h),
            sample_noise_mixture(100, 1.0, 0.7, 100.0, h),
        ):
            assert np.array_equal(x, y)
