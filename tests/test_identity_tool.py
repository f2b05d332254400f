"""``tools/identity.py compare`` on hand-made manifests.

Digests depend on numpy's BLAS build, so no digest is pinned here: the
manifests are written by hand, and only the comparison is checked.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)

ENV = {"numpy": "2.0", "cpu_count": 2, "OPENBLAS_NUM_THREADS": None}


def _write(path: Path, digests: dict, env=ENV) -> Path:
    path.write_text(json.dumps({"environment": env, "digests": digests}))
    return path


def test_equal_manifests_exit_0(tmp_path, capsys):
    digests = {"simulate/wn/dataset": "aa", "benchmark/csv": "bb"}
    a = _write(tmp_path / "a.json", digests)
    b = _write(tmp_path / "b.json", dict(reversed(digests.items())))
    assert identity.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "differs" not in out and "0 of 2 outputs differ" in out


def test_differing_and_missing_entries_exit_1(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"x": "1", "y": "2", "only_a": "3"})
    b = _write(
        tmp_path / "b.json", {"x": "1", "y": "9", "only_b": "4"},
        env=dict(ENV, OPENBLAS_NUM_THREADS="1"),
    )
    assert identity.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("note: environments differ")
    assert lines[1:] == [
        "differs: only_a", "differs: only_b", "differs: y", "3 of 4 outputs differ",
    ]
