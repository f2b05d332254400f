"""Tooling rules: numpy is the library's one runtime dependency, and its
dense algebra goes through numpy.linalg only.

Every module that ``src/stablespline`` imports, at the top of a file or
inside a function, is part of the standard library, ``numpy`` or the
package itself, and pyproject's runtime ``dependencies`` name numpy alone
(scipy is a test-only oracle).  Two libraries with dense algebra would
bring two OpenBLAS builds: numpy and scipy bundle separate ones, and
alternating between them on a hot path makes their thread pools compete,
which made the Gibbs sweep about 18x slower at N=500 under default
threading.  The library must not paper over that fight with thread
settings either: it never writes ``os.environ`` and never imports
``threadpoolctl``.  The one thread variable it names is in the environment
it builds for the worker processes of ``run_experiment``
(``benchmark._worker_env``): k workers on k CPUs, each with OpenBLAS's
default 2 threads, put 2k threads on k CPUs, and a pool of 2 then finished
a 20-run N=200 experiment in 0.85-0.94 of the sequential time, against
0.49-0.65 with one thread per worker.  Neither importing the package nor
simulating a low-pass dataset loads any scipy module: scipy's import time
would land in every command's start-up.

The library also calls no ``numpy.linalg.inv``: an explicit inverse is an
LU with n right-hand sides where one right-hand side holds the answer (the
Gibbs step draws w by one solve of its information system with a perturbed
right-hand side, and the posterior mean is the same solve).  Nor does it call
``numpy.linalg.lstsq`` or ``numpy.linalg.cond``: each is an SVD of its
argument, where one QR of the data already gives the least-squares residual
and an n x n triangle whose condition is that of U.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stablespline

SOURCES = sorted(Path(stablespline.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy"}
SVD_ROUTES = {"lstsq", "cond"}
THREAD_SETTINGS = (
    "threadpoolctl",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
# (file, function): the environment built for worker processes, the one
# place a thread variable may be named
WORKER_ENV = ("benchmark.py", "_worker_env")
ENVIRON_WRITERS = {"update", "setdefault", "__setitem__"}


def _foreign_imports(tree):
    """(line, module) of every absolute import, at any depth, whose top-level
    module is neither in the standard library nor numpy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] not in ALLOWED_IMPORTS:
                yield node.lineno, module


def _numpy_linalg_uses(tree, names):
    """(line, form) of every reference to numpy.linalg.<name> for ``names``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            base = node.value
            if (isinstance(base, ast.Attribute) and base.attr == "linalg") or (
                isinstance(base, ast.Name) and base.id == "linalg"
            ):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            for alias in node.names:
                if alias.name in names:
                    yield node.lineno, f"from numpy.linalg import {alias.name}"


def test_imports_only_stdlib_and_numpy():
    assert {p.name for p in SOURCES} >= {"benchmark.py", "gibbs.py", "ssml.py", "kernels.py"}
    bad = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in _foreign_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not bad, "imports outside the standard library and numpy: " + ", ".join(bad)


def test_rule_catches_each_import_form():
    src = (
        "import scipy\n"
        "from scipy import linalg\n"
        "from scipy.linalg import solve_triangular, toeplitz\n"
        "import os, scipy.linalg as sl\n"
        "def lowpass(e):\n"
        "    from scipy.signal import lfilter\n"
        "    return lfilter([1.0], [1.0, -0.5], e)\n"
        "import numpy as np, numpy.linalg\n"
        "from . import errors\n"
        "from .errors import NumericError\n"
        "from __future__ import annotations\n"
        "import warnings, dataclasses\n"
    )
    found = [line for line, _ in _foreign_imports(ast.parse(src))]
    assert found == [1, 2, 3, 4, 6]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in project["dependencies"]]
    assert names == ["numpy"]


def test_no_numpy_inv():
    bad = [
        f"{path.name}:{line}: {form}"
        for path in SOURCES
        for line, form in _numpy_linalg_uses(ast.parse(path.read_text(), str(path)), {"inv"})
    ]
    assert not bad, "numpy.linalg.inv in the library: " + ", ".join(bad)


def test_inv_rule_catches_each_form():
    src = (
        "x = np.linalg.inv(a)\n"
        "x = numpy.linalg.inv(a)\n"
        "from numpy.linalg import inv\n"
        "from numpy.linalg import cholesky, inv as invert\n"
        "f = linalg.inv\n"
        "x = np.linalg.pinv(a) + np.linalg.solve(a, b) + inv(a)\n"
    )
    found = sorted(line for line, _ in _numpy_linalg_uses(ast.parse(src), {"inv"}))
    assert found == [1, 2, 3, 4, 5]


def test_no_numpy_lstsq_or_cond():
    bad = [
        f"{path.name}:{line}: {form}"
        for path in SOURCES
        for line, form in _numpy_linalg_uses(ast.parse(path.read_text(), str(path)), SVD_ROUTES)
    ]
    assert not bad, "numpy.linalg.lstsq or cond in the library: " + ", ".join(bad)


def test_lstsq_cond_rule_catches_each_form():
    src = (
        "g, *_ = np.linalg.lstsq(U, y, rcond=None)\n"
        "c = numpy.linalg.cond(G)\n"
        "from numpy.linalg import lstsq\n"
        "from numpy.linalg import qr, cond as condition\n"
        "f = linalg.lstsq\n"
        "x = np.linalg.qr(a, mode='r') + np.linalg.svd(r) + lstsq(a) + cond(a)\n"
        "from numpy.linalg import lstsq, cond\n"
    )
    found = sorted(line for line, _ in _numpy_linalg_uses(ast.parse(src), SVD_ROUTES))
    assert found == [1, 2, 3, 4, 5, 7, 7]


def test_import_loads_no_scipy(tmp_path):
    code = (
        "import sys, stablespline\n"
        "from stablespline import cli, generate_input\n"
        "from stablespline.distributions import RngHandle\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "generate_input('lp', 500, RngHandle(1))\n"
        "code = cli.main(['simulate', '--input-kind', 'lp', '--N', '500', '--seed', '1',\n"
        "                 '--output', sys.argv[1], '--truth', sys.argv[2]])\n"
        "print(code, loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stablespline.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "d.csv"), str(tmp_path / "t.json")],
        capture_output=True, text=True, check=True, env=env,
    )
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _thread_settings(filename, source):
    """(line, what) of every thread setting in ``source``: a write to
    ``os.environ`` or a ``putenv`` call anywhere, ``threadpoolctl`` anywhere,
    and a thread variable outside the worker environment's builder."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (filename, node.name) == WORKER_ENV:
            allowed.update(range(node.lineno, node.end_lineno + 1))
    for line, text in enumerate(source.splitlines(), 1):
        for word in THREAD_SETTINGS:
            if word in text and (word == "threadpoolctl" or line not in allowed):
                yield line, word
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(_is_environ(getattr(t, "value", t)) for t in targets):
                yield node.lineno, "os.environ write"
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "putenv" or (name in ENVIRON_WRITERS and _is_environ(func.value)):
                yield node.lineno, "os.environ write"


def test_no_thread_settings():
    bad = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _thread_settings(path.name, path.read_text())
    ]
    assert not bad, "thread settings in the library: " + ", ".join(bad)


def test_thread_rule_catches_each_form():
    src = (
        "import os\n"
        "def _worker_env():\n"
        "    env = dict(os.environ, OPENBLAS_NUM_THREADS='1')\n"
        "    os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "    os.environ.update(OMP_NUM_THREADS='1')\n"
        "    import threadpoolctl\n"
        "    return env\n"
        "os.environ.setdefault('MKL_NUM_THREADS', '1')\n"
        "os.putenv('OPENBLAS_NUM_THREADS', '1')\n"
        "def run():\n"
        "    return dict(os.environ, OMP_NUM_THREADS='1')\n"
        "from os import environ\n"
        "environ |= {'X': '1'}\n"
    )
    found = sorted(_thread_settings("benchmark.py", src))
    assert found == [
        (4, "os.environ write"), (5, "os.environ write"), (6, "threadpoolctl"),
        (8, "MKL_NUM_THREADS"), (8, "os.environ write"),
        (9, "OPENBLAS_NUM_THREADS"), (9, "os.environ write"),
        (11, "OMP_NUM_THREADS"), (13, "os.environ write"),
    ]
    # the same builder in another module is not the worker environment
    assert (3, "OPENBLAS_NUM_THREADS") in set(_thread_settings("gibbs.py", src))
