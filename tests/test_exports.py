"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import scinfer

MODULES = ["scinfer"] + [f"scinfer.{m.name}" for m in pkgutil.iter_modules(scinfer.__path__)]


@pytest.mark.parametrize("modname", MODULES)
def test_every_export_resolves(modname):
    module = importlib.import_module(modname)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
