"""Tooling rule: the library's dense algebra goes through numpy.linalg only.

numpy and scipy bundle separate OpenBLAS builds.  Alternating between them
on a hot path makes their thread pools compete, which made the Gibbs sweep
about 18x slower at N=500 under default threading.  The library imports no
``scipy.linalg`` name, and must not paper over the fight with thread
settings.  Importing the package loads no scipy module at all: scipy's
import time would land in every command's start-up.

The library also calls no ``numpy.linalg.inv``: an explicit inverse is an
LU with n right-hand sides where a factorization already holds the answer
(the Gibbs step draws w = L_A^{-T}(u + z) by one solve against the factor
L_A of one bordered Cholesky, which also gives u).  Nor does it call
``numpy.linalg.lstsq`` or ``numpy.linalg.cond``: each is an SVD of its
argument, where one QR of the data already gives the least-squares residual
and an n x n triangle whose condition is that of U.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import stablespline

SOURCES = sorted(Path(stablespline.__file__).parent.glob("*.py"))
ALLOWED_SCIPY_LINALG = set()
SVD_ROUTES = {"lstsq", "cond"}
THREAD_SETTINGS = (
    "threadpoolctl",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def _scipy_linalg_imports(tree):
    """(line, name) of every scipy.linalg import outside the allowed names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.linalg"):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.linalg"):
                for alias in node.names:
                    if node.module != "scipy.linalg" or alias.name not in ALLOWED_SCIPY_LINALG:
                        yield node.lineno, f"{node.module}.{alias.name}"
            elif node.module == "scipy":
                for alias in node.names:
                    if alias.name == "linalg":
                        yield node.lineno, "scipy.linalg"


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


def test_no_scipy_linalg():
    assert {p.name for p in SOURCES} >= {"gibbs.py", "ssml.py", "kernels.py"}
    bad = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _scipy_linalg_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not bad, "scipy.linalg imports: " + ", ".join(bad)


def test_rule_catches_each_import_form():
    src = (
        "import scipy.linalg\n"
        "from scipy import linalg\n"
        "from scipy.linalg import solve_triangular, toeplitz\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "from scipy.linalg import toeplitz\n"
    )
    found = [line for line, _ in _scipy_linalg_imports(ast.parse(src))]
    assert found == [1, 2, 3, 3, 4, 5]


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


def test_import_loads_no_scipy():
    code = (
        "import sys, stablespline; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stablespline.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_no_thread_settings():
    bad = [
        f"{path.name}: {word}"
        for path in SOURCES
        for word in THREAD_SETTINGS
        if word in path.read_text()
    ]
    assert not bad, "thread settings in the library: " + ", ".join(bad)
