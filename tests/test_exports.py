import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import leon

MODULES = ["leon", *sorted(f"leon.{m.name}" for m in pkgutil.iter_modules(leon.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_perfbench_tracer_finds_every_binding(monkeypatch):
    """perfbench's tracer wraps module bindings of `leon` by name; a binding
    it cannot find would leave a per-layer metric empty without an error."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # dataclasses look it up
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer(leon)
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
