"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its observed margin and runtime. All criteria run
offline on synthetic tasks with fixed seeds."""

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from leon.cli import main
from leon.core import Hyperparams
from leon.optimizer import RunConfig, evaluate_cohort, run_leon
from leon.tasks import make_dose_task
from leon.verify import (
    check_backprop_fd,
    check_boltzmann_closed_form,
    check_collapse_optimality,
    check_critic_contract,
    check_dual_gradient,
    check_mu_recovery,
    check_risk_bound,
)


def _report(number, result, limit_s):
    status = "PASS" if result.passed else "FAIL"
    print(f"[criterion {number}] {status} ({result.seconds:.1f}s / limit {limit_s}s): "
          f"{result.detail}")
    assert result.passed, result.detail
    assert result.seconds < limit_s


def test_criterion_1_collapse_brute_force():
    _report(1, check_collapse_optimality(seed=0, instances=50), 10)


def test_criterion_2_closed_form_weights():
    _report(2, check_boltzmann_closed_form(seed=0, instances=20), 30)


def test_criterion_3_dual_gradient():
    _report(3, check_dual_gradient(seed=0, instances=100), 5)


def test_criterion_4_mu_recovery():
    _report(4, check_mu_recovery(seed=0, n_samples=10_000), 5)


def test_criterion_5_critic_contract():
    _report(5, check_critic_contract(seed=0), 30)


def test_criterion_6_risk_bound():
    _report(6, check_risk_bound(seed=0, instances=200), 20)


def test_criterion_7_backprop_gradients():
    _report(7, check_backprop_fd(seed=0, nets=20), 5)


# ---------------------------------------------------------------------------
# end-to-end criteria
# ---------------------------------------------------------------------------

HP_FULL = Hyperparams(budget=2048, batch_size=32)
COHORT_SEED = 2024


def test_criterion_8_directional_ordering_under_shift():
    """Shifted dose task: the entropy-guided optimizer's mean oracle score
    is within half a pooled SEM of every baseline. Every method returns
    its memory's best raw row."""
    t0 = time.time()
    task = make_dose_task(0)
    methods = [
        RunConfig(method="leon", engine="boltzmann-memory", hp=HP_FULL),
        RunConfig(method="random-search", hp=HP_FULL),
        RunConfig(method="simulated-annealing", hp=HP_FULL),
        RunConfig(method="surrogate-greedy", hp=HP_FULL),
    ]
    res = evaluate_cohort(task, methods, n_patients=20, seed=COHORT_SEED)
    leon_row = res.summaries[0]
    ok = True
    details = []
    for row in res.summaries[1:]:
        pooled = float(np.sqrt(leon_row.sem ** 2 + row.sem ** 2))
        margin = leon_row.mean - (row.mean - 0.5 * pooled)
        ok &= margin >= 0
        details.append(f"{row.method}: margin {margin:+.3f}")
    elapsed = time.time() - t0
    print(f"[criterion 8] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / limit 600s): "
          f"leon mean {leon_row.mean:.3f}; " + "; ".join(details))
    assert ok
    assert elapsed < 600


def test_criterion_9_no_shift_parity():
    """At mixture weight 1 (no shift), the method's mean oracle score is
    within one pooled SEM of greedy surrogate ascent."""
    t0 = time.time()
    task = make_dose_task(0)
    methods = [
        RunConfig(method="leon", engine="boltzmann-memory", hp=HP_FULL, mixture_w=1.0),
        RunConfig(method="surrogate-greedy", hp=HP_FULL, mixture_w=1.0),
    ]
    res = evaluate_cohort(task, methods, n_patients=20, seed=COHORT_SEED)
    leon_row, greedy_row = res.summaries
    pooled = float(np.sqrt(leon_row.sem ** 2 + greedy_row.sem ** 2))
    ok = leon_row.mean >= greedy_row.mean - pooled
    elapsed = time.time() - t0
    print(f"[criterion 9] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / limit 600s): "
          f"leon {leon_row.mean:.6f} vs greedy {greedy_row.mean:.6f}, pooled SEM {pooled:.6f}")
    assert ok
    assert elapsed < 600


@dataclass
class ForcedEngine:
    """Proposes designs uniformly from a fixed dose interval; used to force
    in- or out-of-distribution batches in the controlled dynamics runs."""

    lo: float
    hi: float
    seed: int = 0

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.warnings = []

    def propose(self, state, b):
        return self.rng.uniform(self.lo, self.hi, size=(b, 1))

    def reflect(self, state, scores):
        return "forced"

    def knowledge(self, sources, state, budget):
        return ""


def test_criterion_10_lambda_dynamics():
    """Controlled runs: forced out-of-distribution proposals push the
    multiplier up every step; forced in-distribution proposals let it
    decay."""
    t0 = time.time()
    task = make_dose_task(0)

    # source designs cluster near dose 50; propose far outside
    hp_ood = Hyperparams(budget=160, batch_size=16, w0=0.0, lambda0=0.0)
    cfg = RunConfig(method="leon", hp=hp_ood, partition="random")
    ood = run_leon(task, cfg, seed=3, engine=ForcedEngine(95.0, 100.0, seed=5))
    ood_trace = np.array(ood.lambda_trace)
    ood_ok = bool(np.all(np.diff(ood_trace) >= -1e-12)) and ood_trace[-1] > ood_trace[0]

    hp_ind = Hyperparams(budget=160, batch_size=16, w0=0.5, lambda0=0.5)
    cfg_ind = RunConfig(method="leon", hp=hp_ind, partition="random")
    ind = run_leon(task, cfg_ind, seed=3, engine=ForcedEngine(40.0, 60.0, seed=5))
    ind_trace = np.array(ind.lambda_trace)
    ind_ok = bool(np.all(np.diff(ind_trace) <= 1e-12)) and ind_trace[-1] < ind_trace[0]

    elapsed = time.time() - t0
    ok = ood_ok and ind_ok
    print(f"[criterion 10] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / limit 60s): "
          f"ood trace {ood_trace[0]:.4f}->{ood_trace[-1]:.4f} non-decreasing={ood_ok}; "
          f"in-dist trace {ind_trace[0]:.4f}->{ind_trace[-1]:.4f} non-increasing={ind_ok}")
    assert ok
    assert elapsed < 60


CRITERION_11_CONFIG = {
    "task": "dose",
    "methods": [{"name": "leon", "engine": "boltzmann-memory"},
                {"name": "random-search"}],
    "n_patients": 2,
    "seed": 7,
    "hyperparams": {"budget": 256, "batch_size": 32},
    "surrogate": {"variant": "analytic-shift", "beta": 0.5},
}
CRITERION_11_SHA256 = "323b8e3975502de4f5e78ddd6b3233d0f11d86110e65a600f855d522f76ad31c"

# the benchmark's dose-kmeans, regimen-score and dose-learned configs, methods
# in a fixed order: together they run leon and every baseline's continuous and
# boolean paths, and one training of the learned surrogate
_BENCHMARK_BASELINES = [{"name": "random-search"}, {"name": "simulated-annealing"},
                        {"name": "surrogate-greedy"}]
_BENCHMARK_RUN = {"n_patients": 4, "seed": 2024,
                  "hyperparams": {"budget": 2048, "batch_size": 32},
                  "surrogate": {"variant": "analytic-shift", "beta": 0.5, "radius": 1.0}}
PINNED_RESULTS = {
    "criterion-11": (CRITERION_11_CONFIG, CRITERION_11_SHA256),
    "dose-kmeans": (
        {"task": "dose", "methods": [{"name": "leon", "engine": "boltzmann-memory",
                                      "partition": "kmeans"}, *_BENCHMARK_BASELINES],
         **_BENCHMARK_RUN},
        "94e65d346caedbf15a97feafeab86c0774fa5943df5eceadf3d856c32870d796"),
    "regimen-score": (
        {"task": "regimen", "methods": [{"name": "leon", "engine": "boltzmann-memory",
                                         "partition": "score"}, *_BENCHMARK_BASELINES],
         **_BENCHMARK_RUN},
        "8c85c06cb1ced257e95f3f8e5d8596f1905dab590cb1f222fff759aa11530c04"),
    "dose-learned": (
        {"task": "dose", "methods": [{"name": "leon", "engine": "boltzmann-memory",
                                      "partition": "kmeans"}],
         **_BENCHMARK_RUN, "n_patients": 1, "surrogate": {"variant": "learned"}},
        "be5608325d42196e146298d7cbcf44fa533f5a6c6e3288f15280f68596edb41d"),
}


def test_criterion_11_cli_determinism(tmp_path):
    """Two identical CLI runs with mock engines produce byte-identical
    results JSON."""
    t0 = time.time()
    cfg = {**CRITERION_11_CONFIG, "output_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    # the subprocess imports leon from this checkout's src, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "leon.cli", "run", "-c", str(cfg_path)],
            capture_output=True, text=True, timeout=240, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append((tmp_path / "out" / "results.json").read_bytes())
    ok = digests[0] == digests[1]
    elapsed = time.time() - t0
    print(f"[criterion 11] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / limit 300s): "
          f"{len(digests[0])} result bytes, identical={ok}")
    assert ok
    assert elapsed < 300


@pytest.mark.parametrize("name", list(PINNED_RESULTS))
def test_criterion_11_results_are_pinned(tmp_path, name):
    """Mock-engine configs keep byte-identical output: criterion 11's config
    and the three benchmark configs, run in-process, write the `results.json`
    whose sha256 is pinned here. A change that alters this output on
    purpose updates the pin and states why in CHANGES.md."""
    config, sha256 = PINNED_RESULTS[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**config, "output_dir": str(tmp_path / "out")}),
                        encoding="utf-8")
    result = CliRunner().invoke(main, ["run", "-c", str(cfg_path)])
    assert result.exit_code == 0, result.output
    written = (tmp_path / "out" / "results.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == sha256
