"""Every result is the same under any BLAS thread count.

OpenBLAS reads its thread count when numpy loads, so each setting runs in
its own child process: a small Monte Carlo sweep (both input kinds, both
kernel orders, N=200 and N=500, where OpenBLAS splits products across
threads, and an experiment large enough for ``run_experiment``'s worker
processes) and one ``identify --estimator both``.  Each child prints
digests of the ``repr`` of every ``run_experiment`` result and of the bytes
of the result document, and all children must print the same.  The
variable is set in the children's environment only; the library sets it
only for its worker processes, whatever the caller's setting.
"""

import os
import subprocess
import sys
from pathlib import Path

import stablespline
from stablespline.benchmark import ExperimentConfig, simulate
from stablespline.distributions import RngHandle
from stablespline.fileio import write_dataset

CHILD = """
import hashlib, sys
from stablespline.benchmark import RUNS_PER_WORKER, ExperimentConfig, run_experiment
from stablespline.cli import main
from stablespline.gibbs import GibbsConfig

sweep = hashlib.sha256()
for N in (200, 500):
    for kind in ("wn", "lp"):
        for order in ("first", "second"):
            config = ExperimentConfig(
                runs=2, N=N, input_kind=kind, order=order,
                gibbs=GibbsConfig(M=300, M0=100), master_seed=11,
            )
            sweep.update(repr(run_experiment(config)).encode())
# enough runs for run_experiment to hand them to worker processes
config = ExperimentConfig(runs=2 * RUNS_PER_WORKER, gibbs=GibbsConfig(M=300, M0=100),
                          master_seed=11)
sweep.update(repr(run_experiment(config)).encode())
data, out = sys.argv[1:]
argv = ["identify", "--input", data, "--output", out, "--estimator", "both",
        "--iters", "300", "--burnin", "100"]
assert main(argv) == 0
print(sweep.hexdigest(), hashlib.sha256(open(out, "rb").read()).hexdigest())
"""

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _digests(threads, data, out):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(stablespline.__file__).parents[1])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(data), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return child.stdout


def test_results_independent_of_blas_threads(tmp_path):
    data = tmp_path / "data.csv"
    sim = simulate(ExperimentConfig(N=500), RngHandle(11))
    write_dataset(data, sim.dataset.u, sim.dataset.y)
    digests = {
        threads: _digests(threads, data, tmp_path / f"result-{threads}.json")
        for threads in ("1", None, "3")
    }
    assert len(set(digests.values())) == 1, digests
