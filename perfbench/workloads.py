"""The benchmark's workloads, as ``leon run`` configs.

Every workload uses the documented experiment seed 2024, budget 2048 and
batch 32, so that ``leon_regret`` is a property of the program and repeats
exactly. The benchmark's ``--seed`` sets the order in which the config
lists the methods; a run's results do not depend on that order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EXPERIMENT_SEED = 2024
BUDGET = 2048
BATCH = 32

BASELINES = [{"name": "random-search"}, {"name": "simulated-annealing"},
             {"name": "surrogate-greedy"}]
ANALYTIC = {"variant": "analytic-shift", "beta": 0.5, "radius": 1.0}


@dataclass(frozen=True)
class Workload:
    task: str
    methods: tuple
    n_patients: int
    surrogate: dict


WORKLOADS = {
    "dose-kmeans": Workload(
        task="dose",
        methods=({"name": "leon", "engine": "boltzmann-memory", "partition": "kmeans"},
                 *BASELINES),
        n_patients=4,
        surrogate=ANALYTIC,
    ),
    "regimen-score": Workload(
        task="regimen",
        methods=({"name": "leon", "engine": "boltzmann-memory", "partition": "score"},
                 *BASELINES),
        n_patients=4,
        surrogate=ANALYTIC,
    ),
    "dose-learned": Workload(
        task="dose",
        # leon alone: one 36-48 s training per run keeps a run well inside the
        # time budget; with surrogate-greedy too, a run took up to 100 s
        methods=({"name": "leon", "engine": "boltzmann-memory", "partition": "kmeans"},),
        n_patients=1,
        surrogate={"variant": "learned"},
    ),
}


def make_config(name: str, seed: int, output_dir: str, smoke: bool = False) -> dict:
    """The ``leon run`` config of a workload; `smoke` shrinks the budget
    and the cohort for the benchmark's own tests."""
    w = WORKLOADS[name]
    methods = [dict(m) for m in w.methods]
    random.Random(seed).shuffle(methods)
    budget = 2 * BATCH if smoke else BUDGET
    return {
        "task": w.task,
        "methods": methods,
        "n_patients": 1 if smoke else w.n_patients,
        "seed": EXPERIMENT_SEED,
        "hyperparams": {"budget": budget, "batch_size": BATCH},
        "surrogate": dict(w.surrogate),
        "output_dir": output_dir,
    }


__all__ = ["EXPERIMENT_SEED", "BUDGET", "BATCH", "Workload", "WORKLOADS", "make_config"]
