"""The package surface is pinned, and every exported name resolves: a name
left in an ``__all__`` after its definition was deleted or moved would break
``from stablespline import *`` and the documented API.  Likewise every
attribute that the benchmark's tracer patches must exist, or
``perfbench/run.py --trace 1`` fails at install."""

import ast
import importlib
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
        "conditional_g_moments", "conditional_lambda", "conditional_tau", "fit_score",
        "generate_input", "generate_system", "impulse_response", "kernel_factor",
        "kernel_quadratic_form", "posterior_mean", "posterior_moments",
        "quantile_diagnostics", "run_experiment", "run_gibbs", "run_ssml",
        "sample_noise_mixture", "summarize",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"stablespline.{name}")
    if hasattr(module, "__all__"):
        assert _missing(module) == []


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
