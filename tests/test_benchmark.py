import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from stablespline import (
    ConfigError,
    ExperimentConfig,
    GibbsConfig,
    NumericError,
    TransferFunction,
    generate_input,
    generate_system,
    impulse_response,
    run_experiment,
    summarize,
)
from stablespline.benchmark import POLE_RADIUS, _filter, _single_run, lowpass_filter, simulate
from stablespline.distributions import RngHandle
from stablespline.fileio import write_runs_csv

FAST_GIBBS = GibbsConfig(M=200, M0=60)


def fast_config(**overrides):
    base = dict(
        runs=2,
        N=80,
        input_kind="wn",
        n=15,
        gibbs=FAST_GIBBS,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenerateSystem:
    def test_poles_inside_disk(self):
        for i in range(25):
            tf = generate_system(RngHandle(200, stream=i), n=50)
            assert np.max(np.abs(tf.poles)) < POLE_RADIUS
            assert tf.poles.size == 30 and tf.zeros.size == 30

    def test_conjugate_closure(self):
        tf = generate_system(RngHandle(201), n=50)
        assert np.allclose(np.sort_complex(tf.poles), np.sort_complex(np.conj(tf.poles)))
        assert np.allclose(np.sort_complex(tf.zeros), np.sort_complex(np.conj(tf.zeros)))

    def test_unit_norm_truncated_response(self):
        for i in range(10):
            tf = generate_system(RngHandle(202, stream=i), n=50)
            g = impulse_response(tf, 50)
            assert abs(np.linalg.norm(g) - 1.0) <= 1e-10

    def test_tail_decay_statistics(self):
        # median tail fraction ||g(46..50)|| / ||g|| over 100 systems must
        # stay below the pure rate-0.95 geometric reference (0.0632);
        # pilot of this seeded loop gave median ~0.012
        t = np.arange(1, 51)
        w = 0.95 ** (2 * t)
        geometric_bound = np.sqrt(w[45:].sum() / w.sum())
        fracs = []
        for i in range(100):
            tf = generate_system(RngHandle(55, stream=i), n=50)
            g = impulse_response(tf, 50)
            fracs.append(np.linalg.norm(g[45:]) / np.linalg.norm(g))
        assert np.median(fracs) < geometric_bound

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_response_starts_at_one(self, seed, n):
        # B is monic, so the unscaled response starts at exactly 1 and its
        # norm is at least 1: the gain is always finite
        tf = generate_system(RngHandle(seed), n=n)
        assert _filter(tf.num, tf.den, np.eye(1, n)[0])[0] == 1.0
        assert impulse_response(tf, n)[0] == tf.gain

    def test_reproducible(self):
        a = generate_system(RngHandle(203), n=30)
        b = generate_system(RngHandle(203), n=30)
        assert np.array_equal(a.poles, b.poles)
        assert np.array_equal(a.zeros, b.zeros)
        assert a.gain == b.gain


class TestImpulseResponse:
    def test_pure_delay(self):
        tf = TransferFunction(zeros=np.array([]), poles=np.array([]), gain=1.0)
        g = impulse_response(tf, 6)
        assert np.array_equal(g, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_single_pole_geometric(self):
        a = 0.6
        tf = TransferFunction(zeros=np.array([]), poles=np.array([a]), gain=1.0)
        g = impulse_response(tf, 8)
        expected = a ** np.arange(8)
        assert np.allclose(g, expected, rtol=1e-13)

    def test_matches_lfilter_long_division(self):
        # scipy's direct-form filter of the impulse performs the same
        # ascending-power long division of B by A, independently coded
        rng = np.random.default_rng(204)
        for i in range(5):
            tf = generate_system(RngHandle(205, stream=i), n=50)
            b = tf.gain * np.poly(tf.zeros).real
            a = np.poly(tf.poles).real
            impulse = np.zeros(10)
            impulse[0] = 1.0
            oracle = lfilter(b, a, impulse)
            g = impulse_response(tf, 10)
            assert np.allclose(g, oracle, atol=1e-9)

    def test_rejects_pole_outside_radius(self):
        with pytest.raises(ConfigError):
            TransferFunction(zeros=np.array([]), poles=np.array([0.96]), gain=1.0)

    def test_large_stable_response_accepted(self):
        # a 30-zero FIR has unscaled samples up to ~6e7 (binomial
        # coefficients times 0.94^k); stable, so it must not be rejected
        tf = TransferFunction(
            zeros=np.full(30, -0.94), poles=np.array([]), gain=1.0
        )
        h = impulse_response(tf, 30)
        assert np.max(np.abs(h)) > 1e6
        assert np.all(np.isfinite(h))
        g = h / np.linalg.norm(h)
        assert np.all(np.isfinite(g)) and abs(np.linalg.norm(g) - 1.0) <= 1e-12

    def test_instability_guard(self):
        # only a response that overflows is rejected
        with pytest.raises(NumericError):
            _filter(np.array([1.0]), np.array([1.0, -1e200]), np.eye(1, 5)[0])


class TestGenerateInput:
    def test_white_noise_autocorrelation(self):
        N = 20_000
        u = generate_input("wn", N, RngHandle(210))
        u0 = u - u.mean()
        rho1 = float(u0[1:] @ u0[:-1]) / float(u0 @ u0)
        assert abs(rho1) <= 4.0 / np.sqrt(N)

    def test_lowpass_autocorrelation_at_injected_pole(self):
        # AR(2) with double pole rho has lag-1 autocorrelation
        # phi1/(1 - phi2) = 2 rho / (1 + rho^2)
        rho = 0.9
        N = 50_000
        e = RngHandle(211).generator().standard_normal(N)
        x = lowpass_filter(e, rho)
        x0 = x - x.mean()
        r1 = float(x0[1:] @ x0[:-1]) / float(x0 @ x0)
        assert abs(r1 - 2 * rho / (1 + rho**2)) <= 0.05

    def test_lowpass_variance_positive_finite(self):
        for i in range(10):
            x = generate_input("lp", 2000, RngHandle(212, stream=i))
            v = x.var()
            assert np.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("N", [500, 4000])
    @pytest.mark.parametrize("rho", [0.75, 0.85, 0.95])
    def test_lowpass_matches_lfilter(self, rho, N):
        # scipy's direct-form filter is an independently coded oracle; a
        # tolerance rather than bit equality, so a scipy upgrade cannot
        # break the test
        e = RngHandle(213, stream=N).generator().standard_normal(N)
        oracle = lfilter([(1.0 - rho) ** 2], [1.0, -2.0 * rho, rho**2], e)
        x = lowpass_filter(e, rho)
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(x))

    def test_unit_dc_gain(self):
        rho = 0.8
        step = lowpass_filter(np.ones(4000), rho)
        assert step[-1] == pytest.approx(1.0, abs=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            generate_input("bandpass", 10, RngHandle(0))


class TestRunExperiment:
    def test_single_run_deterministic(self):
        cfg = fast_config(runs=1)
        r1, s1 = run_experiment(cfg)
        r2, s2 = run_experiment(cfg)
        assert r1 == r2
        assert s1["fit_ssgs"] == s2["fit_ssgs"]

    def test_seed_isolation_when_extending_runs(self):
        short, _ = run_experiment(fast_config(runs=2))
        longer, _ = run_experiment(fast_config(runs=4))
        assert longer[:2] == short

    def test_summary_median_definition(self):
        results, summary = run_experiment(fast_config(runs=4))
        gs = [r.fit_ssgs for r in results]
        ml = [r.fit_ssml for r in results]
        assert summary["fit_ssgs"]["median"] == pytest.approx(np.median(gs))
        assert summary["fit_ssml"]["median"] == pytest.approx(np.median(ml))
        assert summary["win_rate_ssgs"] == pytest.approx(
            np.mean(np.array(gs) > np.array(ml))
        )

    def test_noise_scale_contract(self):
        # regenerate the noiseless output of run 0 and confirm the noise
        # variance used is exactly var(y0) / snr_divisor
        from stablespline.benchmark import generate_input as gi
        from stablespline.model import build_regressor

        cfg = fast_config(runs=1, snr_divisor=50.0)
        h = RngHandle(cfg.master_seed, stream=0)
        tf = generate_system(h.child(0), n=cfg.n)
        g = impulse_response(tf, cfg.n)
        u = gi(cfg.input_kind, cfg.N, h.child(1))
        y0 = build_regressor(u, cfg.N, cfg.n) @ g
        sigma2 = float(np.var(y0)) / cfg.snr_divisor
        assert float(np.var(y0)) / sigma2 == pytest.approx(cfg.snr_divisor, rel=1e-12)
        sim = simulate(cfg, h)
        assert sim.sigma2 == sigma2
        assert np.array_equal(sim.g_true, g) and np.array_equal(sim.dataset.u, u)

    def test_large_unscaled_response_run_completes(self):
        # run 2 of master seed 1 draws a stable system (max |pole| 0.947)
        # whose unscaled response passes 1e6; it must run to the end
        cfg = ExperimentConfig(runs=3, N=200, input_kind="wn", master_seed=1)
        r = _single_run(cfg, 2)
        assert r.fit_ssml == pytest.approx(69.32, abs=0.05)
        assert np.isfinite(r.fit_ssgs) and r.fit_ssgs > r.fit_ssml

    def test_failure_containment_and_abort(self, monkeypatch):
        import stablespline.benchmark as bench

        real = bench._single_run

        def flaky(config, run_index):
            if run_index == 0:
                raise NumericError("injected failure", context="test")
            return real(config, run_index)

        # the injected run function exists only in this process, so the runs
        # stay here; tests/test_workers.py covers the worker path's failures
        monkeypatch.setattr(bench, "_cpu_count", lambda: 1)
        monkeypatch.setattr(bench, "_single_run", flaky)
        results, summary = bench.run_experiment(fast_config(runs=6))
        assert summary["n_failed"] == 1
        assert [r.run_index for r in results] == [1, 2, 3, 4, 5]
        assert summary["failures"][0]["run_index"] == 0

        def always_fail(config, run_index):
            raise NumericError("injected failure", context="test")

        monkeypatch.setattr(bench, "_single_run", always_fail)
        with pytest.raises(NumericError):
            bench.run_experiment(fast_config(runs=4))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(c1=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(N=40, n=50)
        with pytest.raises(ConfigError):
            summarize([])

    def test_c2_complement(self):
        cfg = ExperimentConfig(c1=0.7)
        assert cfg.c2 == pytest.approx(0.3)

    def test_no_outlier_setting(self):
        # c1=1 reproduces the outlier-free protocol: nominal component only
        from stablespline.distributions import sample_noise_mixture

        _, mask = sample_noise_mixture(2000, 1.0, 1.0, 100.0, RngHandle(213))
        assert not mask.any()


class TestRunsCsv:
    def test_warnings_column_splits_back(self, tmp_path):
        # snr_divisor=1e14 puts the least-squares noise variance under the
        # sigma2 floor, so every run records the floor warning
        cfg = ExperimentConfig(
            runs=2, N=80, n=10, snr_divisor=1e14, master_seed=3, gibbs=GibbsConfig(M=60, M0=20)
        )
        results, _ = run_experiment(cfg)
        assert all(r.warnings for r in results)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, results)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [tuple(row[5].split(";")) for row in rows] == [r.warnings for r in results]
