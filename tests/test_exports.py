"""Every exported name resolves, in the package and in each submodule."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import levyfock

MODULES = ["levyfock"] + [
    f"levyfock.{info.name}" for info in pkgutil.iter_modules(levyfock.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
