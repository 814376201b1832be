import importlib
import pkgutil

import pytest

import leon

MODULES = ["leon", *sorted(f"leon.{m.name}" for m in pkgutil.iter_modules(leon.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
