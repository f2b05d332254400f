import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablespline
from stablespline.benchmark import ExperimentConfig, simulate
from stablespline.cli import build_parser, main
from stablespline.distributions import RngHandle
from stablespline.fileio import dump_document, read_dataset, read_document, write_dataset


def run_cli(*argv):
    return main(list(argv))


SIM_ARGS = [
    "simulate",
    "--N", "120",
    "--n", "20",
    "--seed", "11",
    "--input-kind", "wn",
]

IDENTIFY_FAST = ["--n", "20", "--iters", "200", "--burnin", "60", "--seed", "3"]


@pytest.fixture
def sim_files(tmp_path):
    ds = tmp_path / "data.csv"
    truth = tmp_path / "truth.json"
    code = run_cli(*SIM_ARGS, "--output", str(ds), "--truth", str(truth))
    assert code == 0
    return ds, truth


class TestParser:
    def test_failed_parse_leaves_the_next_call_unchanged(self, tmp_path, capsys):
        # one parser serves every call in a process: a parse that exits 2
        # must not change what the next call does or prints
        def simulate(name):
            ds, truth = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert run_cli(*SIM_ARGS, "--output", str(ds), "--truth", str(truth)) == 0
            return ds.read_bytes(), truth.read_bytes(), capsys.readouterr()

        before = simulate("before")
        paths = ["--output", str(tmp_path / "x.csv"), "--truth", str(tmp_path / "x.json")]
        for bad in (["simulate", "--N", "many"], ["identify", "--estimator", "none"], ["nope"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(*bad, *paths)
            assert exc.value.code == 2
            capsys.readouterr()
        assert simulate("after") == before
        assert build_parser() is build_parser()


class TestSimulate:
    def test_round_trip_files(self, sim_files):
        ds_path, truth_path = sim_files
        ds = read_dataset(ds_path)
        assert ds.N == 120
        truth = read_document(truth_path)
        assert truth["kind"] == "simulation_truth"
        assert truth["schema_version"] == 1
        assert len(truth["impulse_response"]) == 20
        assert truth["config"]["seed"] == 11

    def test_same_seed_byte_identical(self, tmp_path, sim_files):
        ds_path, truth_path = sim_files
        ds2 = tmp_path / "data2.csv"
        truth2 = tmp_path / "truth2.json"
        assert run_cli(*SIM_ARGS, "--output", str(ds2), "--truth", str(truth2)) == 0
        assert ds2.read_bytes() == ds_path.read_bytes()
        assert truth2.read_bytes() == truth_path.read_bytes()

    def test_no_outliers_when_c1_is_one(self, tmp_path):
        ds = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        assert run_cli(*SIM_ARGS, "--c1", "1.0", "--output", str(ds), "--truth", str(truth)) == 0
        doc = read_document(truth)
        assert doc["outlier_count"] == 0
        assert doc["outlier_indices"] == []

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--N", "10", "--n", "20",
            "--output", str(tmp_path / "d.csv"), "--truth", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: need N > n, got N=10, n=20\n"
        for command in ("simulate", "benchmark"):
            paths = ["--output", str(tmp_path / "d.csv")]
            if command == "simulate":
                paths += ["--truth", str(tmp_path / "t.json")]
            assert run_cli(command, "--n", "0", *paths) == 2
            assert capsys.readouterr().err == "error: n must be positive, got 0\n"

    def test_kernel_flag_rejected(self, tmp_path, capsys):
        # simulation draws no kernel: the flag belongs to identify and benchmark
        with pytest.raises(SystemExit) as exc:
            run_cli(
                *SIM_ARGS, "--kernel", "first",
                "--output", str(tmp_path / "d.csv"), "--truth", str(tmp_path / "t.json"),
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel first" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_writes_the_benchmark_simulation(self, tmp_path):
        # one simulation routine: the command's dataset is simulate()'s
        for seed, kind in ((11, "wn"), (4, "lp")):
            ds = tmp_path / f"{kind}.csv"
            args = ["simulate", "--N", "120", "--n", "20", "--input-kind", kind, "--seed", str(seed)]
            assert run_cli(*args, "--output", str(ds), "--truth", str(tmp_path / "t.json")) == 0
            config = ExperimentConfig(N=120, n=20, input_kind=kind)
            want = simulate(config, RngHandle(seed)).dataset
            got = read_dataset(ds)
            assert np.array_equal(got.u, want.u) and np.array_equal(got.y, want.y)


class TestIdentify:
    def test_identify_with_truth_scores_fit(self, sim_files, tmp_path):
        ds, truth = sim_files
        out = tmp_path / "result.json"
        code = run_cli(
            "identify", "--input", str(ds), "--truth", str(truth),
            "--output", str(out), "--estimator", "both", *IDENTIFY_FAST,
        )
        assert code == 0
        doc = read_document(out)
        assert set(doc["fit"]) == {"ssml", "ssgs"}
        assert doc["hyperparameters"]["sigma2"] > 0
        assert len(doc["ssml"]["g_hat"]) == 20
        assert len(doc["ssgs"]["g_hat"]) == 20

    def test_noiseless_identify_fit_above_99(self, tmp_path):
        # simulate with a tiny noise floor: snr divisor 1e8 keeps the
        # Gaussian component negligible
        ds = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        assert run_cli(
            *SIM_ARGS, "--c1", "1.0", "--snr-divisor", "1e8",
            "--output", str(ds), "--truth", str(truth),
        ) == 0
        out = tmp_path / "r.json"
        assert run_cli(
            "identify", "--input", str(ds), "--truth", str(truth),
            "--output", str(out), "--estimator", "ssml", "--n", "20",
        ) == 0
        doc = read_document(out)
        assert doc["fit"]["ssml"] >= 99.0

    def test_estimator_both_shares_hyperparameters(self, sim_files, tmp_path):
        ds, _ = sim_files
        out = tmp_path / "r.json"
        assert run_cli(
            "identify", "--input", str(ds), "--output", str(out),
            "--estimator", "both", *IDENTIFY_FAST,
        ) == 0
        doc = read_document(out)
        assert "ssml" in doc and "ssgs" in doc
        assert "hyperparameters" in doc  # single shared block

    @pytest.mark.parametrize("iters, present", [(199, True), (198, False)])
    def test_diagnostics_need_100_kept_draws(self, sim_files, tmp_path, iters, present):
        # a chain keeps sweeps M0..M, iters - burnin + 1 draws
        ds, _ = sim_files
        out = tmp_path / "r.json"
        assert run_cli(
            "identify", "--input", str(ds), "--output", str(out), "--estimator", "ssgs",
            "--n", "20", "--iters", str(iters), "--burnin", "100", "--seed", "3",
        ) == 0
        diag = read_document(out)["ssgs"]["diagnostics"]
        assert (diag is not None) == present
        if present:
            assert set(diag) == {"flagged_count", "max_normalized_discrepancy", "threshold"}

    def test_missing_input_exits_2_without_output(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "identify", "--input", str(tmp_path / "nope.csv"),
            "--output", str(out), *IDENTIFY_FAST,
        )
        assert code == 2
        assert not out.exists()

    def test_malformed_input_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,u,y\n1,0.5,1.0\n2,oops,1.0\n")
        out = tmp_path / "r.json"
        code = run_cli("identify", "--input", str(bad), "--output", str(out), "--n", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv:3" in err
        assert not out.exists()

    def test_numeric_failure_exits_3(self, tmp_path):
        # constant-zero output makes the noise model degenerate
        ds = tmp_path / "zero.csv"
        rng = np.random.default_rng(0)
        write_dataset(ds, rng.standard_normal(60), np.zeros(60))
        code = run_cli(
            "identify", "--input", str(ds), "--output", str(tmp_path / "r.json"),
            "--n", "10", "--estimator", "ssml",
        )
        assert code == 3

    def test_all_zero_input_exits_3(self, tmp_path, capsys):
        ds = tmp_path / "zero_input.csv"
        write_dataset(ds, np.zeros(60), np.random.default_rng(0).standard_normal(60))
        out = tmp_path / "r.json"
        code = run_cli(
            "identify", "--input", str(ds), "--output", str(out),
            "--n", "10", "--estimator", "ssml",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "all-zero input" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def _huge_data(case):
        """(u, y, n) of each overflow case."""
        u, y = np.random.default_rng(0).standard_normal((2, 30))
        if case == "huge_input":
            return np.full(30, 1e200), y, 5
        if case == "huge_output":
            return u, np.full(30, 1e300), 5
        # two spikes: U'U is rank-deficient, and its ridge and entries overflow
        u = np.zeros(23)
        u[14], u[19] = 1e160, 1e159
        return u, np.random.default_rng(0).standard_normal(23), 12

    @pytest.mark.parametrize("case", ["huge_input", "huge_output", "huge_normal_matrix"])
    def test_overflowing_data_exits_3(self, tmp_path, case):
        # lambda's unit 4^(k-m) underflows for the input and the spikes, and
        # sigma2's 4^k overflows for the output: each is one numeric-failure
        # line, with no traceback and no raw RuntimeWarning
        ds = tmp_path / "huge.csv"
        u, y, n = self._huge_data(case)
        write_dataset(ds, u, y)
        env = dict(os.environ, PYTHONPATH=str(Path(stablespline.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "stablespline", "identify", "--input", str(ds),
             "--output", str(tmp_path / "r.json"), "--n", str(n), "--estimator", "ssml"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 3, out.stderr
        assert out.stderr.startswith("numeric failure:")
        assert "Traceback" not in out.stderr and "Warning" not in out.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "u_scale, y_scale",
        [(1.0, 1e-80), (1.0, 1e100), (1e7, 1e7), (1e7, 1.0)],
        ids=["tiny_output", "large_output", "large_both", "large_input"],
    )
    def test_data_scale_samples_cleanly(self, tmp_path, u_scale, y_scale):
        # the chain samples on u 2^-m and y 2^-k: no lambda-rate floor and no
        # GIG overflow at any of these scales, so no warning and no failure
        sim = simulate(ExperimentConfig(N=200, n=20), RngHandle(4))
        ds = tmp_path / "scaled.csv"
        write_dataset(ds, sim.dataset.u * u_scale, sim.dataset.y * y_scale)
        env = dict(os.environ, PYTHONPATH=str(Path(stablespline.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "stablespline", "identify", "--input", str(ds),
             "--output", str(tmp_path / "r.json"), "--n", "20", "--estimator", "ssgs",
             "--iters", "200", "--burnin", "100"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "Warning" not in out.stderr and "Traceback" not in out.stderr
        assert np.all(np.isfinite(read_document(tmp_path / "r.json")["ssgs"]["g_hat"]))

    @pytest.mark.parametrize(
        "doc",
        [
            "[1, 2]",
            '{"impulse_response": ["x"' + ', 0.5' * 19 + "]}",
            '{"impulse_response": [null' + ', null' * 19 + "]}",
        ],
        ids=["not_an_object", "non_numeric_response", "non_finite_response"],
    )
    def test_malformed_truth_exits_2(self, sim_files, tmp_path, capsys, monkeypatch, doc):
        ds, _ = sim_files
        truth = tmp_path / "bad_truth.json"
        truth.write_text(doc)

        def no_fit(*args):
            pytest.fail("the truth document must be checked before fitting")

        monkeypatch.setattr("stablespline.cli.run_ssml", no_fit)
        out = tmp_path / "r.json"
        code = run_cli(
            "identify", "--input", str(ds), "--truth", str(truth),
            "--output", str(out), "--estimator", "ssml", "--n", "20",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(truth) in err
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["ssgs", "both"])
    @pytest.mark.parametrize(
        "flags",
        [["--iters", "10", "--burnin", "20"], ["--seed", "-1"]],
        ids=["burnin_past_iters", "negative_seed"],
    )
    def test_sampler_settings_checked_before_fitting(
        self, sim_files, tmp_path, capsys, monkeypatch, estimator, flags
    ):
        ds, _ = sim_files

        def no_fit(*args):
            pytest.fail("the sampler settings must be checked before fitting")

        monkeypatch.setattr("stablespline.cli.run_ssml", no_fit)
        out = tmp_path / "r.json"
        code = run_cli(
            "identify", "--input", str(ds), "--output", str(out),
            "--estimator", estimator, "--n", "20", *flags,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_n_too_large_exits_2(self, sim_files, tmp_path):
        ds, _ = sim_files
        code = run_cli(
            "identify", "--input", str(ds),
            "--output", str(tmp_path / "r.json"), "--n", "120",
        )
        assert code == 2


class TestBenchmarkCommand:
    BM_ARGS = [
        "benchmark", "--runs", "2", "--N", "80", "--n", "15",
        "--iters", "200", "--burnin", "60", "--seed", "5", "--quiet",
    ]

    def test_writes_runs_and_summary(self, tmp_path):
        out = tmp_path / "runs.csv"
        assert run_cli(*self.BM_ARGS, "--output", str(out)) == 0
        summary = read_document(tmp_path / "runs.summary.json")
        assert summary["kind"] == "benchmark_summary"
        assert summary["config"]["N"] == 80
        assert summary["config"]["input_kind"] == "wn"
        assert summary["n_completed"] == 2
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "run,fit_ssml,fit_ssgs,beta_hat,sigma2,warnings"
        assert len(lines) == 3

    def test_win_rate_matches_rows(self, tmp_path):
        out = tmp_path / "runs.csv"
        assert run_cli(*self.BM_ARGS, "--output", str(out)) == 0
        summary = read_document(tmp_path / "runs.summary.json")
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        wins = np.mean([float(r[2]) > float(r[1]) for r in rows])
        assert 0.0 <= summary["win_rate_ssgs"] <= 1.0
        assert summary["win_rate_ssgs"] == pytest.approx(wins)

    def test_negative_seed_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            pytest.fail("the seed must be checked before any run")

        monkeypatch.setattr("stablespline.benchmark._single_run", no_run)
        args = [
            "benchmark", "--runs", "2", "--N", "80", "--n", "10",
            "--iters", "60", "--burnin", "20", "--seed", "-1",
        ]
        out = tmp_path / "runs.csv"
        assert run_cli(*args, "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "error: master_seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(*self.BM_ARGS, "--output", str(out1)) == 0
        assert run_cli(*self.BM_ARGS, "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestDocumentFormat:
    def test_floats_survive_round_trip(self, tmp_path):
        values = [0.1, 1 / 3, 1e-17, 123456789.123456789, -2.5e300]
        text = dump_document({"x": values})
        parsed = json.loads(text)
        assert parsed["x"] == values

    def test_rejects_non_finite(self):
        import pytest as _pytest

        from stablespline.errors import ConfigError

        with _pytest.raises(ConfigError):
            dump_document({"x": float("nan")})

    def test_dataset_header_validated(self, tmp_path):
        bad = tmp_path / "h.csv"
        bad.write_text("time,in,out\n1,2,3\n")
        from stablespline.errors import ConfigError

        with pytest.raises(ConfigError, match="h.csv:1"):
            read_dataset(bad)

    def test_simulate_identify_round_trip_property(self, tmp_path):
        # identify(simulate(x)) succeeds across randomized configurations
        rng = np.random.default_rng(42)
        for trial in range(3):
            N = int(rng.integers(60, 140))
            n = int(rng.integers(5, 21))
            kind = "wn" if rng.random() < 0.5 else "lp"
            c1 = float(rng.uniform(0.5, 1.0))
            seed = int(rng.integers(0, 1000))
            ds = tmp_path / f"d{trial}.csv"
            truth = tmp_path / f"t{trial}.json"
            assert run_cli(
                "simulate", "--N", str(N), "--n", str(n), "--seed", str(seed),
                "--input-kind", kind, "--c1", str(c1),
                "--output", str(ds), "--truth", str(truth),
            ) == 0
            out = tmp_path / f"r{trial}.json"
            assert run_cli(
                "identify", "--input", str(ds), "--truth", str(truth),
                "--output", str(out), "--estimator", "ssml", "--n", str(n),
            ) == 0
            assert "fit" in read_document(out)
