"""Byte-identity check of the program's outputs.

    python tools/identity.py write OUT.json [--src DIR]
    python tools/identity.py compare A.json B.json

``write`` runs a fixed set of commands and records a SHA-256 digest of each
output, with the environment that produced it (numpy version, CPU count and
the BLAS thread variables) and the package directory it imported.  ``--src`` names the source tree to import
``stablespline`` from (default: ``src`` beside this directory), so one copy
of this tool can digest two trees, say a change and its parent.  The
outputs are:

- ``simulate --N 200 --n 30 --seed 5``, white-noise and low-pass input:
  the dataset and the truth document;
- ``identify --n 30 --iters 400 --burnin 100 --seed 4`` for each estimator
  and each kernel order, on both datasets;
- ``benchmark --runs 3 --N 200 --iters 400 --burnin 100 --seed 2``: the
  runs CSV and the summary;
- the ``repr`` of ``run_experiment`` for runs=2, N in {200, 500}, wn and lp
  input, both kernel orders, M=300, M0=100 and master seed 11.

``compare`` lists the outputs whose digests differ, or that only one
manifest has, and exits 1 if there is any.  Digests depend on numpy and on
its BLAS build, so compare manifests written in one environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(main, argv: list[str]) -> None:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def _outputs():
    """(name, bytes) of every output, in a fixed order; runs in the current
    directory, so the paths written into the documents are relative."""
    from stablespline.benchmark import ExperimentConfig, run_experiment
    from stablespline.cli import main
    from stablespline.gibbs import GibbsConfig

    for kind in ("wn", "lp"):
        data, truth = f"{kind}.csv", f"{kind}.truth.json"
        _cli(main, ["simulate", "--N", "200", "--n", "30", "--seed", "5",
                    "--input-kind", kind, "--output", data, "--truth", truth])
        yield f"simulate/{kind}/dataset", Path(data).read_bytes()
        yield f"simulate/{kind}/truth", Path(truth).read_bytes()
        for estimator in ("ssml", "ssgs", "both"):
            for kernel in ("first", "second"):
                out = f"{kind}-{estimator}-{kernel}.json"
                _cli(main, ["identify", "--input", data, "--output", out,
                            "--n", "30", "--iters", "400", "--burnin", "100",
                            "--seed", "4", "--estimator", estimator, "--kernel", kernel])
                yield f"identify/{kind}/{estimator}/{kernel}", Path(out).read_bytes()

    _cli(main, ["benchmark", "--runs", "3", "--N", "200", "--iters", "400",
                "--burnin", "100", "--seed", "2", "--quiet", "--output", "runs.csv"])
    yield "benchmark/csv", Path("runs.csv").read_bytes()
    yield "benchmark/summary", Path("runs.summary.json").read_bytes()

    for N in (200, 500):
        for kind in ("wn", "lp"):
            for order in ("first", "second"):
                config = ExperimentConfig(
                    runs=2, N=N, input_kind=kind, order=order,
                    gibbs=GibbsConfig(M=300, M0=100), master_seed=11,
                )
                yield f"run_experiment/{N}/{kind}/{order}", repr(run_experiment(config)).encode()


def write(out: Path, src: Path) -> dict:
    sys.path.insert(0, str(src.resolve()))
    import numpy

    import stablespline

    manifest = {
        "source": str(Path(stablespline.__file__).resolve().parent),
        "environment": {
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name) for name in THREAD_VARIABLES},
        },
        "digests": {},
    }
    out = out.resolve()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in _outputs():
                manifest["digests"][name] = _digest(data)
        finally:
            os.chdir(cwd)
    out.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def compare(a: dict, b: dict) -> list[str]:
    """The names of the outputs whose digests differ or that one side lacks."""
    da, db = a["digests"], b["digests"]
    return sorted(name for name in da.keys() | db.keys() if da.get(name) != db.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="identity", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="digest every output into a manifest")
    p_write.add_argument("out", type=Path)
    p_write.add_argument("--src", type=Path, default=DEFAULT_SRC,
                         help="source tree to import stablespline from")
    p_cmp = sub.add_parser("compare", help="list the outputs two manifests disagree on")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "write":
        manifest = write(args.out, args.src)
        print(f"{len(manifest['digests'])} outputs digested into {args.out}")
        return 0
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    if a["environment"] != b["environment"]:
        print(f"note: environments differ: {a['environment']} vs {b['environment']}")
    differ = compare(a, b)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(a['digests'].keys() | b['digests'].keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
