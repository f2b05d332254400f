"""Demos 01-04 run to completion against the library as it stands.

Each runs in a subprocess from a temporary working directory, so a demo
that writes files leaves none in the repository.  Demo 05 (a desk-scale
Monte Carlo study) is left out for its run time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stablespline

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-4]_*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(stablespline.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
