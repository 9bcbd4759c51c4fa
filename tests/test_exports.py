"""Every public name resolves: each ``qendy.*`` module's ``__all__`` and every
name ``qendy/__init__.py`` imports, so a deletion leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qendy

MODULES = sorted(info.name for info in pkgutil.iter_modules(qendy.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qendy.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"qendy.{name}.__all__ names what does not exist: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(qendy.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported, "qendy/__init__.py imports nothing"
    missing = [f"qendy.{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(f"qendy.{module}"), name)]
    assert not missing, f"qendy/__init__.py imports what does not exist: {missing}"
