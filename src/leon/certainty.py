"""Certainty-parameter machinery.

Per-class optima of the critic-regularized surrogate, Boltzmann class
weights, slope-regression estimation of the entropy multiplier mu, the
dual gradient in lambda, and design scoring. These are the single-step
updates of the optimization loop, on plain values: lambda and mu are
floats the loop carries, and no convergence machinery lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalence import occupancies
from .numerics import regression_slope, stable_softmax

DEFAULT_MU = 1.0


@dataclass(frozen=True)
class ClassStats:
    """Per observed class: occupancy, best member, and its value.

    `best_rows[i]` is the batch row of the class's best member, the max over
    class members of the raw value f_hat + lambda * critic; `best_values[i]`
    is that max. Occupancies over observed classes sum to 1.
    """

    class_ids: tuple[int, ...]
    q_hat: np.ndarray
    best_rows: np.ndarray
    best_values: np.ndarray

    def __len__(self) -> int:
        return len(self.class_ids)


def class_optima(raw, assignments, n_classes: int) -> ClassStats:
    """Reduce a scored batch to per-class optima.

    Row j of the batch has raw value `raw[j]` (f_hat + lambda * critic) and
    class `assignments[j]`. Ties keep the first occurrence.
    """
    raw = np.asarray(raw, dtype=float)
    assignments = np.asarray(assignments, dtype=int)
    if len(raw) == 0:
        raise ValueError("empty batch")
    if len(raw) != len(assignments):
        raise ValueError("batch and assignments misaligned")
    q = occupancies(assignments, n_classes)
    order = np.lexsort((-raw, assignments))  # by class, then best first; stable on ties
    cls = assignments[order]
    rows = order[np.r_[True, cls[1:] != cls[:-1]]]
    ids = assignments[rows]
    return ClassStats(
        class_ids=tuple(int(i) for i in ids),
        q_hat=q[ids],
        best_rows=rows,
        best_values=raw[rows],
    )


def boltzmann_weights(stats: ClassStats, mu: float) -> np.ndarray:
    """Normalized exp(mu * best_value) over observed classes.

    Computed with max-subtraction so it is finite by construction and
    invariant under constant shifts of the values. mu = 0 gives the uniform
    distribution over observed classes.
    """
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if len(stats) == 0:
        raise ValueError("empty class stats")
    return stable_softmax(mu * stats.best_values)


def estimate_mu(stats: ClassStats, prev_mu: float, mu_max: float) -> float:
    """Slope of log occupancy on best value across observed classes,
    clamped to [0, mu_max].

    Falls back to `prev_mu` when fewer than two classes were observed or
    the values have zero variance (slope undefined).
    """
    if len(stats) < 2:
        return prev_mu
    slope = regression_slope(stats.best_values, np.log(stats.q_hat))
    if slope is None:
        return prev_mu
    return float(min(max(slope, 0.0), mu_max))


def dual_gradient(w0: float, src_mean_critic: float, best_critic, qbar) -> float:
    """Partial derivative of the dual objective in lambda:
    w0 - (E_src[critic] - sum_i qbar_i * critic(best_i)), where
    `best_critic[i]` is the critic value at class i's best row."""
    best_critic = np.asarray(best_critic, dtype=float)
    qbar = np.asarray(qbar, dtype=float)
    if qbar.shape != best_critic.shape:
        raise ValueError("qbar misaligned with class optima")
    return float(w0 - src_mean_critic + qbar @ best_critic)


def update_lambda(lam: float, grad: float, eta_lambda: float, step: int) -> float:
    """One projected step lambda <- max(0, lambda - (eta/sqrt(step)) * grad),
    with `step` the 1-based acquisition step."""
    return float(max(0.0, lam - (eta_lambda / np.sqrt(step)) * grad))


def score_designs(raw_values, mu_hat: float) -> np.ndarray:
    """Elementwise mu_hat * raw_value."""
    if mu_hat < 0:
        raise ValueError("mu_hat must be >= 0")
    return mu_hat * np.asarray(raw_values, dtype=float)


def log_partition(values, mu: float) -> float:
    """log Z = logsumexp(mu * s) over per-class values, for dual-value
    diagnostics and verification."""
    s = np.asarray(values, dtype=float)
    m = (mu * s).max()
    return float(m + np.log(np.exp(mu * s - m).sum()))


__all__ = [
    "DEFAULT_MU",
    "ClassStats",
    "class_optima",
    "boltzmann_weights",
    "estimate_mu",
    "dual_gradient",
    "update_lambda",
    "score_designs",
    "log_partition",
]
