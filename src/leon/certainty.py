"""Certainty-parameter machinery.

Per-class optima of the critic-regularized surrogate, Boltzmann class
weights, slope-regression estimation of the entropy multiplier mu, the
dual gradient in lambda, and design scoring. These are the single-step
updates of the optimization loop; no convergence machinery lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .equivalence import occupancies
from .numerics import regression_slope, stable_softmax

DEFAULT_MU = 1.0


@dataclass(frozen=True)
class ClassStats:
    """Per observed class: occupancy, best member, and its values.

    `best_rows[i]` is the batch row of the class's best member, the max over
    class members of f_hat + lambda * critic; `best_values[i]` is that max and
    `best_critic[i]` the critic value at that row (needed by the dual
    gradient). Occupancies over observed classes sum to 1.
    """

    class_ids: tuple[int, ...]
    q_hat: np.ndarray
    best_rows: np.ndarray
    best_values: np.ndarray
    best_critic: np.ndarray

    def __len__(self) -> int:
        return len(self.class_ids)


@dataclass(frozen=True)
class CertaintyState:
    lam: float = 0.0
    mu_hat: float = DEFAULT_MU
    step: int = 1

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.step < 1:
            raise ValueError("step must be >= 1")


def class_optima(f_vals, c_vals, assignments, lam: float, n_classes: int) -> ClassStats:
    """Reduce a scored batch to per-class optima.

    Row j of the batch has surrogate value `f_vals[j]`, critic value
    `c_vals[j]` and class `assignments[j]`; its raw value is
    f_hat + lam * critic. Ties keep the first occurrence.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    c_vals = np.asarray(c_vals, dtype=float)
    assignments = np.asarray(assignments, dtype=int)
    if len(f_vals) == 0:
        raise ValueError("empty batch")
    if not len(f_vals) == len(c_vals) == len(assignments):
        raise ValueError("batch and assignments misaligned")
    q = occupancies(assignments, n_classes)
    raw = f_vals + lam * c_vals
    order = np.lexsort((-raw, assignments))  # by class, then best first; stable on ties
    cls = assignments[order]
    rows = order[np.r_[True, cls[1:] != cls[:-1]]]
    ids = assignments[rows]
    return ClassStats(
        class_ids=tuple(int(i) for i in ids),
        q_hat=q[ids],
        best_rows=rows,
        best_values=raw[rows],
        best_critic=c_vals[rows],
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


def dual_gradient(w0: float, src_mean_critic: float, stats: ClassStats,
                  qbar) -> float:
    """Partial derivative of the dual objective in lambda:
    w0 - (E_src[critic] - sum_i qbar_i * critic(best_i))."""
    qbar = np.asarray(qbar, dtype=float)
    if qbar.shape != stats.best_critic.shape:
        raise ValueError("qbar misaligned with class stats")
    return float(w0 - src_mean_critic + qbar @ stats.best_critic)


def update_lambda(state: CertaintyState, grad: float, eta_lambda: float) -> CertaintyState:
    """One projected step lambda <- max(0, lambda - (eta/sqrt(t)) * grad).

    The caller increments `step` once per acquisition.
    """
    new_lam = max(0.0, state.lam - (eta_lambda / np.sqrt(state.step)) * grad)
    return replace(state, lam=float(new_lam))


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
    "CertaintyState",
    "class_optima",
    "boltzmann_weights",
    "estimate_mu",
    "dual_gradient",
    "update_lambda",
    "score_designs",
    "log_partition",
]
