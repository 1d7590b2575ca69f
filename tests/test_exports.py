"""Every public name the package lists exists, and the package re-exports
only names its modules list as public."""

import ast
import importlib
from pathlib import Path

import pytest

import capfold

MODULES = ["bounds", "caps", "directions", "fem", "measures", "moebius", "specfun"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"capfold.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _reexports():
    tree = ast.parse(Path(capfold.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_reexports_only_public_names():
    # exceptions keeps no __all__: every class in it is public
    stray = [
        (module, name)
        for module, name in _reexports()
        if module != "exceptions"
        and name not in importlib.import_module(f"capfold.{module}").__all__
    ]
    assert stray == []
    assert {module for module, _ in _reexports()} - {"exceptions"} == set(MODULES)
