"""The environment a benchmark run measured in.

Figures at N=500 depend on how many threads each bundled OpenBLAS starts, so
every run records the thread variables as it found them (the benchmark sets
none), the CPUs it may use, the library builds and the source commit.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_PLACES",
)


def _blas_build(module) -> dict:
    """BLAS section of the build configuration numpy or scipy was built with."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return {"version": module.__version__, "blas": None}
    return {
        "version": module.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_configuration": blas.get("openblas configuration"),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the source tree, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": _blas_build(numpy),
        "scipy": _blas_build(scipy),
        "git_commit": git_commit(root),
    }
