import importlib
import importlib.util
import pkgutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import leon
from leon.core import Hyperparams
from leon.optimizer import RunConfig, run_leon

MODULES = ["leon", *sorted(f"leon.{m.name}" for m in pkgutil.iter_modules(leon.__path__))]


def _load_perfbench(name, monkeypatch):
    """A module of perfbench/, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_perfbench_tracer_finds_every_binding(monkeypatch):
    """perfbench's tracer wraps module bindings of `leon` by name; a binding
    it cannot find would leave a per-layer metric empty without an error."""
    tracer = _load_perfbench("tracer", monkeypatch).Tracer(leon)
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_perfbench_leon_ratios_read_the_memory(dose_task, monkeypatch):
    """perfbench's traced ratios read a finished run's `memory.entries`;
    they agree with the memory's columns."""
    leon_ratios = _load_perfbench("run", monkeypatch).leon_ratios
    cfg = RunConfig(hp=Hyperparams(budget=64, batch_size=32))
    result = run_leon(dose_task, cfg, 0)
    rows = result.memory.view()
    per_step = [len(np.unique(rows.class_id[rows.step == t])) for t in (1, 2)]
    assert leon_ratios([SimpleNamespace(cfg=cfg, result=result)]) == {
        "proposal.distinct_frac": len(np.unique(rows.values, axis=0)) / 64,
        "critic.lambda_active_frac": sum(lam > 0 for lam in result.lambda_trace) / 2,
        "equivalence.classes_per_step": statistics.fmean(per_step),
    }
