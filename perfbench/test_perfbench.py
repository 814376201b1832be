"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gate import ExactOracle, check_run, digest, gate  # noqa: E402
from tracer import LAYERS, RunHooks, RunRecord, Tracer  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

import leon.cli  # noqa: E402
from leon.core import Design, Hyperparams  # noqa: E402
from leon.optimizer import RunConfig, run_baseline  # noqa: E402
from leon.tasks import make_task  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr + out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(metrics[f"self.{lay}_s"] for lay in LAYERS)
        assert 0 < self_sum <= metrics["trace.cohort_s"]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dose-kmeans",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
    shutil.rmtree(bare)


@pytest.mark.parametrize("task_name", ["dose", "regimen"])
def test_exact_oracle_agrees_with_task_oracle(task_name):
    task = make_task({"name": task_name, "seed": 2024})
    exact = ExactOracle(task)
    assert exact.self_check(Design, seed=5, n_ctx=6, n_designs=128) == []


def test_dose_optimum_beats_a_dense_grid():
    task = make_task({"name": "dose", "seed": 0})
    exact = ExactOracle(task)
    ctx = task.sample_context(np.random.default_rng(3), "target")
    best, (x,) = exact.optimum(ctx)
    grid = np.linspace(0.0, 100.0, 20001)
    assert best >= exact.values([(g,) for g in grid], ctx).max() - 1e-12
    assert 0.0 <= x <= 100.0


def _baseline_record(budget=64, seed=11):
    task = make_task({"name": "regimen", "seed": 2024})
    cfg = RunConfig(method="random-search", hp=Hyperparams(budget=budget, batch_size=32))
    ctx = task.sample_context(np.random.default_rng(seed), "target", id="p0")
    rec = RunRecord(task, cfg, seed, ctx, oracle_calls=1)
    rec.result = run_baseline(task, cfg.method, cfg, seed, ctx=ctx)
    return rec, ExactOracle(task)


def test_gate_accepts_repeated_identical_runs():
    a, exact = _baseline_record()
    b, _ = _baseline_record()
    assert check_run(a, 64, exact) is None
    assert digest(a.result) == digest(b.result)
    assert gate([a, b], 64, exact) == {}


def test_gate_flags_unrepeated_nondeterministic_and_overspent_runs():
    a, exact = _baseline_record()
    assert gate([a], 64, exact) == {0: "no same-seed repetition"}
    b, _ = _baseline_record()
    b.result.lambda_trace = [1.0]
    assert set(gate([a, b], 64, exact)) == {0, 1}
    c, _ = _baseline_record()
    c.oracle_calls = 2
    assert "oracle calls" in check_run(c, 64, exact)
    assert "surrogate calls" in check_run(a, 128, exact)


def test_tracer_and_hooks_restore_every_binding():
    import leon

    watched = [leon.optimizer, leon.cli, leon.critic, leon.tasks, leon.equivalence,
               leon.proposal, leon.core.DesignSpace, leon.tasks.Task,
               leon.equivalence.KMeansPartition, leon.tasks.AnalyticShiftSurrogate]
    before = [dict(vars(o)) for o in watched]
    hooks, tracer = RunHooks(leon), Tracer(leon)
    hooks.install()
    tracer.install()
    assert tracer.missing == set()
    assert leon.optimizer.critic_train is not before[0]["critic_train"]
    tracer.uninstall()
    hooks.uninstall()
    for obj, saved in zip(watched, before):
        assert all(vars(obj)[k] is v for k, v in saved.items())


def test_tracer_skips_bindings_it_cannot_find():
    import types

    import leon

    fake = types.SimpleNamespace(**{m: getattr(leon, m) for m in (
        "cli", "optimizer", "equivalence", "critic", "proposal", "core")})
    fake.tasks = types.SimpleNamespace()  # a leon without a tasks module
    tracer = Tracer(fake)
    tracer.install()
    try:
        assert "tasks.LearnedSurrogate.value" in tracer.missing
        assert "optimizer.critic_train" not in tracer.missing
    finally:
        tracer.uninstall()


def test_seed_only_orders_the_methods():
    for name in WORKLOADS:
        a, b = make_config(name, 1, "o"), make_config(name, 2, "o")
        key = lambda m: json.dumps(m, sort_keys=True)  # noqa: E731
        assert sorted(a["methods"], key=key) == sorted(b["methods"], key=key)
        assert {k: v for k, v in a.items() if k != "methods"} == \
            {k: v for k, v in b.items() if k != "methods"}
        leon.cli.parse_config(a)
