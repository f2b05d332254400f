"""The "Library usage" example in README.md runs against the library as it
stands.

The example leaves u, y and g_true to the reader; the test binds them to a
simulated dataset of the benchmark protocol and runs the block in a
subprocess.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import stablespline

README = Path(__file__).resolve().parents[1] / "README.md"

SETUP = """\
from stablespline.benchmark import ExperimentConfig, simulate
from stablespline.distributions import RngHandle
_sim = simulate(ExperimentConfig(N=200), RngHandle(0))
u, y, g_true = _sim.dataset.u, _sim.dataset.y, _sim.g_true
"""


def library_usage_block() -> str:
    section = README.read_text().split("## Library usage", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_usage_example_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(stablespline.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", SETUP + library_usage_block()],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
