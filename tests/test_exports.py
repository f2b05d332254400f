"""The package surface is pinned, and every exported name resolves: a name
left in an ``__all__`` after its definition was deleted or moved would break
``from stablespline import *`` and the documented API.  Likewise every
attribute that the benchmark's tracer patches must exist, or
``perfbench/run.py --trace 1`` fails at install."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import stablespline

MODULES = sorted(
    p.stem for p in Path(stablespline.__file__).parent.glob("*.py") if not p.stem.startswith("__")
)


def _missing(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_package_exports_resolve():
    assert _missing(stablespline) == []


def test_package_surface():
    # the two estimators, their conditionals and the harness; a name added
    # to the package surface is added here too
    assert sorted(stablespline.__all__) == [
        "ConfigError", "Dataset", "ExperimentConfig", "GibbsChain", "GibbsConfig",
        "Hyperparameters", "InputKind", "KernelOrder", "KernelSpec", "NumericError",
        "QuantileReport", "RngHandle", "RunResult", "SsmlResult", "TransferFunction",
        "__version__", "build_kernel", "build_regressor", "conditional_g",
        "conditional_lambda", "conditional_tau", "fit_score", "generate_input",
        "generate_system", "impulse_response", "kernel_factor", "kernel_quadratic_form",
        "posterior_mean", "posterior_moments", "quantile_diagnostics", "run_experiment",
        "run_gibbs", "run_ssml", "sample_noise_mixture", "summarize",
    ]


# parameter names of a kernel-derived matrix: K itself, its factor, or a
# regressor or data matrix built from that factor
KERNEL_MATRIX_PARAMETERS = {"K", "Phi", "L", "L_K", "Xt"}


def test_kernel_users_take_a_spec():
    # every exported callable that uses the kernel takes its KernelSpec and
    # derives the matrix itself, so no caller can pass a K that disagrees
    # with the spec; the error classes have no signature to read
    taking = {
        name: sorted(set(inspect.signature(fn).parameters) & KERNEL_MATRIX_PARAMETERS)
        for name in stablespline.__all__
        if callable(fn := getattr(stablespline, name))
        and not (isinstance(fn, type) and issubclass(fn, Exception))
    }
    assert {name: params for name, params in taking.items() if params} == {}


@pytest.mark.parametrize("name", MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"stablespline.{name}")
    if hasattr(module, "__all__"):
        assert _missing(module) == []


def _private_imports(name):
    """The underscore names that module ``name`` imports from a sibling,
    dunders aside."""
    path = Path(stablespline.__file__).parent / f"{name}.py"
    return [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.startswith("stablespline"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


@pytest.mark.parametrize("name", [m for m in MODULES if not m.startswith("_")])
def test_no_private_name_crosses_a_module(name):
    # a private module (``_worker``) is a part of its sibling, and may reach in
    assert _private_imports(name) == []


def _traced_attributes():
    """The (module, attribute) pairs of ``PATCHES`` in perfbench/layers.py,
    read from its source without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/layers.py defines no PATCHES list")


def test_traced_attributes_resolve():
    pairs = _traced_attributes()
    assert pairs
    missing = [
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
