"""Paired comparisons of two methods over one cohort's patients.

Test-only helpers: `paired` summarizes per-patient differences of two
methods' scores, and `prefix_scores` reads a run's memory as if the budget
had ended after its first k rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import binomtest

from leon.tasks import oracle_eval


@dataclass(frozen=True)
class Paired:
    """Per-pair differences a - b: their mean and its SEM (0 for one pair),
    wins, ties and losses of a, and the two-sided sign-test p over the
    untied pairs (1 when every pair ties)."""

    mean: float
    sem: float
    wins: int
    ties: int
    losses: int
    p: float


def paired(a, b) -> Paired:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or len(a) == 0:
        raise ValueError(f"need two non-empty 1-D arrays of one length, got {a.shape} and {b.shape}")
    d = a - b
    wins, losses = int((d > 0).sum()), int((d < 0).sum())
    sem = float(d.std(ddof=1) / np.sqrt(len(d))) if len(d) > 1 else 0.0
    p = binomtest(wins, wins + losses).pvalue if wins + losses else 1.0
    return Paired(float(d.mean()), sem, wins, len(d) - wins - losses, losses, float(p))


def prefix_scores(task, result, ctx, ks) -> np.ndarray:
    """For each k in `ks`, the oracle score at `ctx` of the row that
    `select_final` picks among the first k rows of `result.memory`: the
    best raw value, the earliest row on a tie."""
    rows = result.memory.view()
    scores = []
    for k in ks:
        if not 1 <= k <= len(rows):
            raise ValueError(f"prefix {k} outside 1..{len(rows)}")
        scores.append(oracle_eval(task, rows.design(int(np.argmax(rows.raw[:k]))), ctx))
    return np.array(scores)
