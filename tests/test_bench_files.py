"""Every ``BENCH_*.json`` at the repository root keeps the trajectory's
format, as ``tools/bench_record.py`` writes it, so entries of different
changes stay comparable."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"pr", "environment", "workloads", "src_lines", "tier1", "acceptance", "identity"}
# recorded from BENCH_22.json on
EXPERIMENT_KEYS = {"experiment_s", "cpus"}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_format(path):
    bench = json.loads(path.read_text())
    assert KEYS <= set(bench)
    if bench["pr"] >= 22:
        assert EXPERIMENT_KEYS <= set(bench)
        assert bench["experiment_s"] > 0 and bench["cpus"] >= 1
    assert path.name == f"BENCH_{bench['pr']}.json"
    assert bench["workloads"]
    for row in bench["workloads"]:
        assert {"workload", "seed", "result"} <= set(row)
        assert {"correct", "attempted", "failed", "metrics"} <= set(row["result"])
    assert {"wc_l", "code_lines"} <= set(bench["src_lines"])
    assert {"command", "wall_s", "passed", "durations"} <= set(bench["tier1"])
    assert bench["acceptance"] and all(
        line.startswith("ACCEPTANCE ") for line in bench["acceptance"]
    )
    assert set(bench["identity"]) == {"default", "OPENBLAS_NUM_THREADS=1"}
    for manifest in bench["identity"].values():
        assert manifest["digests"]
