"""Write one entry of the ``BENCH_<pr>.json`` trajectory.

    python tools/bench_record.py NUMBER

Run on an otherwise idle machine, from a checkout whose tracked files match
its commit: the tool refuses to run otherwise, so that the commit named in
``environment`` is the code that was measured.  It records, in
``BENCH_<NUMBER>.json`` at the repository root, with NUMBER as ``pr``:

- ``environment``: the environment block of ``perfbench/run.py``;
- ``workloads``: the result line of ``perfbench/run.py --seconds 10
  --trace 0`` for every workload of ``BENCHMARK.json`` on seeds 7, 8 and 9;
- ``experiment_s``: the wall time of one 20-run ``run_experiment`` of the
  acceptance protocol (N=200, white noise, master seed 1), the median over
  3 fresh processes;
- ``cpus``: the CPUs ``run_experiment`` counts when it sizes its worker pool;
- ``src_lines``: ``wc -l src/stablespline/*.py`` and the count of code
  lines without docstrings, comments and blank lines;
- ``tier1``: the Tier-1 command, its wall time, its pass/fail counts and its
  ten slowest tests;
- ``acceptance``: the ``ACCEPTANCE`` lines of ``tests/test_acceptance.py``,
  from the same Tier-1 run;
- ``identity``: the ``tools/identity.py`` digests under default threads and
  under ``OPENBLAS_NUM_THREADS=1``.

``tests/test_bench_files.py`` checks every such file for these keys.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=10", "-rP"]
IDENTITY_THREADS = {"default": None, "OPENBLAS_NUM_THREADS=1": "1"}
# Every entry uses the same seeds and run length, so entries stay comparable.
SEEDS = (7, 8, 9)
SECONDS = 10
EXPERIMENT_REPEATS = 3
EXPERIMENT = """
import time
from stablespline.benchmark import ExperimentConfig, _cpu_count, run_experiment
config = ExperimentConfig(runs=20, N=200, input_kind="wn", master_seed=1)
start = time.perf_counter()
run_experiment(config)
print(time.perf_counter() - start, _cpu_count())
"""


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, not inside a docstring."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def src_lines() -> dict:
    files = sorted((SRC / "stablespline").glob("*.py"))
    texts = [f.read_text() for f in files]
    return {
        "wc_l": sum(t.count("\n") for t in texts),
        "code_lines": sum(code_lines(t) for t in texts),
        "per_file": {f.name: t.count("\n") for f, t in zip(files, texts)},
    }


def _env(**extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra)
    return {k: v for k, v in env.items() if v is not None}


def workloads() -> tuple[dict, list[dict]]:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    environment, rows = None, []
    for name in names:
        for seed in SEEDS:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(SECONDS), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()
            environment = json.loads(out[-2])["environment"]
            rows.append({"workload": name, "seed": seed, "result": json.loads(out[-1])})
    return environment, rows


def experiment() -> tuple[float, int]:
    """Median wall time of the 20-run experiment, and the CPU count."""
    times, cpus = [], None
    for _ in range(EXPERIMENT_REPEATS):
        out = subprocess.run([sys.executable, "-c", EXPERIMENT], cwd=ROOT, env=_env(),
                             capture_output=True, text=True, check=True).stdout.split()
        times.append(float(out[0]))
        cpus = int(out[1])
    return round(statistics.median(times), 3), cpus


def tier1() -> tuple[dict, list[str]]:
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error|skipped)", lines[-1])}
    at = next(i for i, line in enumerate(lines) if "slowest 10 durations" in line)
    durations = [line for line in lines[at + 1 : at + 11] if re.match(r"\d", line)]
    acceptance = [line for line in lines if line.startswith("ACCEPTANCE ")]
    record = {"command": " ".join(["python", *TIER1[1:]]), "wall_s": round(wall, 1),
              **counts, "durations": durations}
    return record, acceptance


def identity() -> dict:
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, threads in IDENTITY_THREADS.items():
            out = Path(tmp, "manifest.json")
            subprocess.run(
                [sys.executable, str(ROOT / "tools" / "identity.py"), "write", str(out)],
                cwd=tmp, env=_env(OPENBLAS_NUM_THREADS=threads), check=True,
                capture_output=True,
            )
            manifest = json.loads(out.read_text())
            record[label] = {"environment": manifest["environment"], "digests": manifest["digests"]}
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("number", type=int, help="the change's number, which names the file")
    args = p.parse_args(argv)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=ROOT, capture_output=True, text=True, check=True).stdout
    if dirty:
        print("tracked files differ from HEAD; commit them first:\n" + dirty, file=sys.stderr)
        return 2
    environment, rows = workloads()
    experiment_s, cpus = experiment()
    tier1_record, acceptance = tier1()
    bench = {
        "pr": args.number,
        "environment": environment,
        "workloads": rows,
        "experiment_s": experiment_s,
        "cpus": cpus,
        "src_lines": src_lines(),
        "tier1": tier1_record,
        "acceptance": acceptance,
        "identity": identity(),
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
