"""Every exported name resolves: a name left in an ``__all__`` after its
definition was deleted or moved would break ``from stablespline import *``
and the documented API."""

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


@pytest.mark.parametrize("name", MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"stablespline.{name}")
    if hasattr(module, "__all__"):
        assert _missing(module) == []

