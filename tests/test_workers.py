"""``run_experiment``'s worker processes: the same results, failures,
progress calls and abort as the in-process loop, and no worker left behind.

The worker count is set by replacing ``benchmark._cpu_count``, the one
function that reads the CPU count; more CPUs than the machine has is fine.  Every
``subprocess.Popen`` the library starts is recorded, so each test can check
that all of them have exited.
"""

import os
import subprocess

import pytest

import stablespline.benchmark as bench
from stablespline import ExperimentConfig, GibbsConfig, NumericError, run_experiment, summarize
from stablespline.benchmark import RUNS_PER_WORKER, _attempt, _single_run


def config(**overrides):
    base = dict(runs=8, N=80, n=15, gibbs=GibbsConfig(M=200, M0=60), master_seed=5)
    return ExperimentConfig(**{**base, **overrides})


def failing_config(master_seed, runs=13):
    # an outlier variance of sigma2 * 1e300 with sigma2 = var(y0) * 1e10
    # overflows, so the runs that draw an outlier fail in simulate: runs 4
    # and 11 of master seed 1 (2 of 13, under the abort limit), and 5 of
    # the 13 runs of master seed 6
    return config(runs=runs, N=100, variance_ratio=1e300, snr_divisor=1e-10, c1=0.998,
                  master_seed=master_seed)


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count with ``workers.use(k)``; ``workers.started``
    lists the processes the library started."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    class Workers:
        def use(self, k):
            monkeypatch.setattr(bench, "_cpu_count", lambda: k)

        def all_exited(self):
            return all(p.returncode is not None for p in started)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    w = Workers()
    w.started = started
    return w


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("runs", [8, 13])
def test_bitwise_equal_to_in_process_runs(workers, runs, cpus):
    cfg = config(runs=runs)
    expected = [_single_run(cfg, i) for i in range(runs)]
    expected_summary = {**summarize(expected), "failures": [], "n_failed": 0,
                        "runs_requested": runs}
    environ = dict(os.environ)
    calls = []
    workers.use(cpus)
    results, summary = run_experiment(cfg, progress=lambda i, r: calls.append((i, r)))
    assert len(workers.started) == min(cpus, runs // RUNS_PER_WORKER)
    assert workers.all_exited()
    assert results == expected and repr(results) == repr(expected)
    assert summary == expected_summary and repr(summary) == repr(expected_summary)
    assert calls == list(enumerate(expected))
    assert dict(os.environ) == environ


def test_small_experiments_stay_in_process(workers):
    workers.use(4)
    run_experiment(config(runs=2 * RUNS_PER_WORKER - 1))
    assert workers.started == []


def test_failure_records_match_in_process(workers):
    cfg = failing_config(master_seed=1)
    workers.use(1)
    expected = run_experiment(cfg)
    assert expected[1]["failures"] == [
        {"run_index": i, "reason": _attempt(cfg, i)[1]} for i in (4, 11)
    ]
    calls = []
    workers.use(2)
    got = run_experiment(cfg, progress=lambda i, r: calls.append(r is None))
    assert len(workers.started) == 2 and workers.all_exited()
    assert repr(got) == repr(expected)
    assert [i for i, failed in enumerate(calls) if failed] == [4, 11]


def test_too_many_failures_abort(workers):
    cfg = failing_config(master_seed=6)
    workers.use(1)
    with pytest.raises(NumericError) as in_process:
        run_experiment(cfg)
    workers.use(2)
    with pytest.raises(NumericError) as in_workers:
        run_experiment(cfg)
    assert str(in_workers.value) == str(in_process.value)
    assert str(in_workers.value).startswith("benchmark.run_experiment: 5/13 runs failed")
    assert len(workers.started) == 2 and workers.all_exited()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_workers_exit_when_progress_raises(workers, error):
    def progress(i, result):
        if i == 2:
            raise error("stop")

    workers.use(2)
    with pytest.raises(error):
        run_experiment(config(runs=13), progress=progress)
    assert len(workers.started) == 2 and workers.all_exited()


def test_killed_worker_raises(workers):
    def progress(i, result):
        if i == 0:
            workers.started[0].kill()

    workers.use(2)
    with pytest.raises(RuntimeError, match="worker exited with code -9"):
        run_experiment(config(runs=13), progress=progress)
    assert workers.all_exited()


def test_worker_that_cannot_start_names_its_error(workers, monkeypatch, tmp_path):
    package = tmp_path / "stablespline"
    package.mkdir()
    (package / "__init__.py").write_text("raise SystemExit('no stablespline here')\n")
    monkeypatch.setattr(bench, "_worker_env", lambda: dict(os.environ, PYTHONPATH=str(tmp_path)))
    workers.use(2)
    with pytest.raises(RuntimeError, match="exited with code 1: no stablespline here"):
        run_experiment(config())
    assert len(workers.started) == 2 and workers.all_exited()
