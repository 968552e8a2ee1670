"""Every name a module lists in ``__all__`` exists, and the package
exports its modules' lists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import scinfer

MODULES = ["scinfer"] + [f"scinfer.{m.name}" for m in pkgutil.iter_modules(scinfer.__path__)]


@pytest.mark.parametrize("modname", MODULES)
def test_every_export_resolves(modname):
    module = importlib.import_module(modname)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_all_is_its_modules_lists():
    """``scinfer.__all__`` is the lists of the modules ``__init__``
    star-imports, every one but ``cli``, joined in import order with no
    name twice; ``__init__`` spells no name of its own."""
    tree = ast.parse(Path(scinfer.__file__).read_text(encoding="utf-8"))
    starred = [
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]
    submodules = [m.removeprefix("scinfer.") for m in MODULES[1:]]
    assert sorted(starred) == sorted(m for m in submodules if m != "cli")
    lists = [importlib.import_module(f"scinfer.{m}").__all__ for m in starred]
    assert scinfer.__all__ == [name for names in lists for name in names]
    assert len(set(scinfer.__all__)) == len(scinfer.__all__)
    strings = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert strings == [ast.get_docstring(tree, clean=False), scinfer.__version__]
