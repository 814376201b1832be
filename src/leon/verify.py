"""Desk-scale brute-force verification of the method's math.

Each check enumerates or finite-differences an independent formulation of
the same quantity the library computes, at sizes where exhaustive search is
feasible, and reports a pass/fail with its observed margin. The CLI runs
all of them with fixed seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .certainty import ClassStats, boltzmann_weights, dual_gradient, estimate_mu, log_partition
from .core import ContinuousDim, DesignSpace, encode_batch
from .critic import critic_train, critic_values, init_critic, w1_estimate
from .numerics import (
    NetWorkspace,
    init_net,
    net_forward_batch,
    net_weighted_gradient,
    shannon_entropy,
    stable_softmax,
)
from .tasks import exact_w1_1d, grid_lipschitz, theorem_s1_check


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _simplex_grid(n_points: int, steps: int) -> np.ndarray:
    """All compositions of `steps` into `n_points` parts, as probability
    vectors with resolution 1/steps."""
    if n_points == 1:
        return np.ones((1, 1))
    rows = []
    _compose(steps, n_points, [], rows)
    return np.array(rows, dtype=float) / steps


def _compose(total, parts, prefix, out):
    if parts == 1:
        out.append(prefix + [total])
        return
    for v in range(total + 1):
        _compose(total - v, parts - 1, prefix + [v], out)


def _entropy_rows(P: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
    return -(P * logs).sum(axis=1)


# ---------------------------------------------------------------------------
# Check 1: collapsing to per-class optima never loses objective value
# ---------------------------------------------------------------------------


def check_collapse_optimality(seed: int = 0, instances: int = 50, step: float = 0.05) -> CheckResult:
    """On a 6-point space with 2 classes, enumerate all distributions on a
    simplex grid that satisfy a coarse-entropy cap; the distribution that
    moves each class's mass onto the class argmax must score at least as
    well, with the same class masses (so it stays feasible)."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    n_designs, steps = 6, int(round(1.0 / step))
    grid = _simplex_grid(n_designs, steps)  # (m, 6)
    lambdas = [0.0, 0.5, 2.0]
    h_cap = 0.8 * np.log(2)
    worst = np.inf
    checked = 0
    for i in range(instances):
        classes = rng.integers(0, 2, size=n_designs)
        while len(set(classes.tolist())) < 2:
            classes = rng.integers(0, 2, size=n_designs)
        f = rng.normal(0, 1, size=n_designs)
        c = rng.normal(0, 1, size=n_designs)
        lam = lambdas[i % len(lambdas)]
        s = f + lam * c
        agg = np.stack([(classes == j).astype(float) for j in (0, 1)], axis=1)  # (6, 2)
        qbar = grid @ agg  # (m, 2) class masses
        feasible = _entropy_rows(qbar) <= h_cap + 1e-12
        if not feasible.any():
            continue
        s_best = np.array([s[classes == j].max() for j in (0, 1)])
        collapsed = qbar[feasible] @ s_best
        direct = grid[feasible] @ s
        worst = min(worst, float((collapsed - direct).min()))
        checked += int(feasible.sum())
    passed = worst >= -1e-9
    return CheckResult("collapse-optimality", passed,
                       f"min margin {worst:.3e} over {checked} feasible distributions",
                       time.time() - t0)


# ---------------------------------------------------------------------------
# Check 2: the exponential-family class weights solve the constrained program
# ---------------------------------------------------------------------------


def check_boltzmann_closed_form(seed: int = 0, instances: int = 20,
                                step: float = 1e-3) -> CheckResult:
    """Dense grid search over the 3-class simplex must recover the
    closed-form class weights within L-inf 5e-3.

    Two equivalent formulations are enumerated: the entropy-floored linear
    program (whose grid argmax pins down the optimum's *value*) and the
    multiplier form, linear objective plus entropy over mu (whose strictly
    concave landscape pins down the optimum's *location* to grid
    resolution; the constrained argmax itself can wander along the flat
    entropy boundary by more than the grid step).
    """
    t0 = time.time()
    rng = np.random.default_rng(seed)
    steps = int(round(1.0 / step))
    i_idx, j_idx = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
    mask = i_idx + j_idx <= steps
    q1 = i_idx[mask] / steps
    q2 = j_idx[mask] / steps
    G = np.stack([q1, q2, 1.0 - q1 - q2], axis=1)
    H = _entropy_rows(G)
    worst_loc = 0.0
    worst_val = 0.0
    for _ in range(instances):
        s = rng.normal(0.0, 1.0, size=3)
        while np.min(np.abs(np.subtract.outer(s, s)[~np.eye(3, dtype=bool)])) < 0.1:
            s = rng.normal(0.0, 1.0, size=3)
        mu = float(rng.uniform(0.5, 2.5))
        stats = ClassStats(q_hat=np.ones(3) / 3, best_rows=np.arange(3), best_values=s)
        closed = boltzmann_weights(stats, mu)

        feasible = H >= shannon_entropy(closed) - 1e-12
        constrained_max = float((G[feasible] @ s).max())
        worst_val = max(worst_val, abs(constrained_max - float(closed @ s)))

        recovered = G[int(np.argmax(G @ s + H / mu))]
        worst_loc = max(worst_loc, float(np.abs(recovered - closed).max()))
    passed = worst_loc <= 5e-3 and worst_val <= 5e-3
    return CheckResult("boltzmann-closed-form", passed,
                       f"max L-inf deviation {worst_loc:.3e}, "
                       f"max constrained-value gap {worst_val:.3e} over {instances} instances",
                       time.time() - t0)


# ---------------------------------------------------------------------------
# Check 3: analytic dual gradient matches finite differences
# ---------------------------------------------------------------------------


def check_dual_gradient(seed: int = 0, instances: int = 100) -> CheckResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    h0 = 1.0  # enters the dual value, cancels from its lambda-derivative
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 7))
        f = rng.normal(0, 1, size=n)
        c = rng.normal(0, 1, size=n)
        mu = float(rng.uniform(0.1, 5.0))
        lam = float(rng.uniform(0.0, 2.0))
        w0 = float(rng.uniform(0.0, 2.0))
        src_mean = float(rng.normal(0, 1))

        def dual(l):
            return (l * (w0 - src_mean) + h0 / mu
                    + log_partition(f + l * c, mu) / mu)

        stats = ClassStats(q_hat=np.ones(n) / n, best_rows=np.arange(n), best_values=f + lam * c)
        qbar = boltzmann_weights(stats, mu)
        analytic = dual_gradient(w0, src_mean, c, qbar)
        h = 1e-6 * max(1.0, abs(lam))
        fd = (dual(lam + h) - dual(lam - h)) / (2 * h)
        rel = abs(analytic - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
    passed = worst <= 1e-5
    return CheckResult("dual-gradient-fd", passed,
                       f"max relative error {worst:.3e} over {instances} instances",
                       time.time() - t0)


# ---------------------------------------------------------------------------
# Check 4: slope regression recovers the entropy multiplier
# ---------------------------------------------------------------------------

_MU_SCALES = {0.5: 1.2, 2.0: 0.45, 5.0: 0.2}


def check_mu_recovery(seed: int = 0, n_samples: int = 10_000) -> CheckResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst_exact = 0.0
    worst_noisy = 0.0
    for mu_true, scale in _MU_SCALES.items():
        s = np.arange(4) * scale
        q = stable_softmax(mu_true * s)
        stats = ClassStats(q_hat=q, best_rows=np.arange(4), best_values=s)
        mu_exact = estimate_mu(stats, prev_mu=1.0)
        worst_exact = max(worst_exact, abs(mu_exact - mu_true))

        draws = rng.choice(4, size=n_samples, p=q)
        q_hat = np.bincount(draws, minlength=4) / n_samples
        keep = q_hat > 0
        noisy = ClassStats(q_hat=q_hat[keep], best_rows=np.flatnonzero(keep),
                           best_values=s[keep])
        mu_noisy = estimate_mu(noisy, prev_mu=1.0)
        worst_noisy = max(worst_noisy, abs(mu_noisy - mu_true) / mu_true)
    passed = worst_exact <= 1e-9 and worst_noisy <= 0.10
    return CheckResult("mu-recovery", passed,
                       f"exact err {worst_exact:.2e}, noisy rel err {worst_noisy:.3f}",
                       time.time() - t0)


# ---------------------------------------------------------------------------
# Check 5: critic contract
# ---------------------------------------------------------------------------


def check_critic_contract(seed: int = 0) -> CheckResult:
    """The refit critic's largest slope between neighbours of 2,001 grid
    points and the samples (in 1-D, the largest of all pairs) is <= 1 + 1e-6;
    identical sets read |W1| <= 1e-12, separated sets 0.9-1 x their exact W1."""
    t0 = time.time()
    space = DesignSpace((ContinuousDim("x", 0.0, 1.0),))
    same = encode_batch(space, np.random.default_rng(seed).uniform(0.2, 0.8, size=(32, 1)))
    same_critic, *same_values, _ = critic_train(init_critic(same, space.is_bool), same)
    est_same = w1_estimate(*same_values)
    src, gen = np.linspace(0.0, 0.2, 24), np.linspace(0.8, 1.0, 24)
    critic, *values, _ = critic_train(
        init_critic(encode_batch(space, src[:, None]), space.is_bool),
        encode_batch(space, gen[:, None]))
    est, true_w1 = w1_estimate(*values), exact_w1_1d(src, gen)
    xs = np.union1d(np.linspace(0.0, 1.0, 2001), np.concatenate([src, gen, same[:, 0]]))
    slope = max(float(np.max(np.abs(np.diff(critic_values(c, xs[:, None]))) / np.diff(xs)))
                for c in (same_critic, critic))
    passed = (slope <= 1 + 1e-6 and abs(est_same) <= 1e-12
              and 0.9 * true_w1 <= est <= true_w1 + 1e-12)
    return CheckResult(
        "critic-contract", passed,
        f"max slope 1 + {slope - 1:.1e} on {len(xs)} points, same-set est {est_same:.1e}, "
        f"separated est {est:.6f} vs exact {true_w1:.4f}",
        time.time() - t0)


# ---------------------------------------------------------------------------
# Check 6: surrogate test-risk bound holds on random 1-D instances
# ---------------------------------------------------------------------------


def _random_1d_instance(rng):
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.5, 4.0)
    c = rng.uniform(-1.0, 1.0)
    knot = rng.uniform(0.5, 1.5)
    slope = rng.uniform(-0.5, 0.5)

    def f(x):
        return a * np.sin(b * x) + c * x

    def f_hat(x):
        return f(x) + slope * max(0.0, x - knot)

    d_lo = rng.uniform(-0.5, 0.0)
    train_x = rng.uniform(d_lo, d_lo + 1.0, size=int(rng.integers(16, 64)))
    shift = rng.uniform(0.0, 2.0)
    test_x = rng.uniform(d_lo + shift, d_lo + shift + 1.0, size=int(rng.integers(16, 64)))
    return f, f_hat, train_x, test_x


def check_risk_bound(seed: int = 0, instances: int = 200) -> CheckResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(instances):
        f, f_hat, train_x, test_x = _random_1d_instance(rng)
        all_x = np.concatenate([train_x, test_x])
        k_f = grid_lipschitz(f, all_x)
        k_fh = grid_lipschitz(f_hat, all_x)
        res = theorem_s1_check(f, f_hat, [(x, f(x)) for x in train_x], test_x, k_f, k_fh)
        worst = min(worst, res["rhs"] - res["lhs"])
    passed = worst >= -1e-9
    return CheckResult("risk-bound", passed,
                       f"min slack (rhs - lhs) {worst:.4f} over {instances} instances",
                       time.time() - t0)


# ---------------------------------------------------------------------------
# Check 7: backprop gradients match central finite differences
# ---------------------------------------------------------------------------


def _min_abs_preactivation(net, X) -> float:
    """Smallest |pre-activation| feeding a rectifier; finite differences are
    only valid when every rectifier input clears the step size."""
    a = np.atleast_2d(X)
    smallest = np.inf
    for layer in net.layers[:-1]:
        z = a @ layer.weights.T + layer.biases
        smallest = min(smallest, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return smallest


def check_backprop_fd(seed: int = 0, nets: int = 20, h: float = 1e-5) -> CheckResult:
    """`net_weighted_gradient`, the one backprop pass, against central
    finite differences of sum_j w[j] * net(X[j]) with random-sign weights."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(nets):
        for attempt in range(100):
            dims = [int(rng.integers(1, 5)), int(rng.integers(2, 8)), int(rng.integers(2, 8)), 1]
            net = init_net(dims, seed=seed * 10007 + i * 101 + attempt)
            X = rng.normal(0, 1, size=(int(rng.integers(4, 12)), dims[0]))
            if _min_abs_preactivation(net, X) > 100 * h:
                break
        w = rng.choice([-1.0, 1.0], size=len(X)) * rng.uniform(0.5, 1.5, size=len(X)) / len(X)
        analytic = net_weighted_gradient(net, X, lambda out: w, NetWorkspace(net, len(X)))

        def objective(n):
            return float(w @ net_forward_batch(n, X))

        fd = np.zeros_like(analytic)
        params = net.params  # every layer's arrays are views of it
        for j in range(params.size):
            orig = params[j]
            params[j] = orig + h
            up = objective(net)
            params[j] = orig - h
            dn = objective(net)
            params[j] = orig
            fd[j] = (up - dn) / (2 * h)
        big = np.abs(fd) > 1e-8
        if big.any():
            worst = max(worst, float((np.abs(analytic - fd)[big] / np.abs(fd)[big]).max()))
        if (~big).any():
            worst = max(worst, float(np.abs(analytic - fd)[~big].max() / 1e-4))
    passed = worst <= 1e-4
    return CheckResult("backprop-fd", passed,
                       f"max relative error {worst:.3e} over {nets} nets",
                       time.time() - t0)


CHECKS = (
    check_collapse_optimality,
    check_boltzmann_closed_form,
    check_dual_gradient,
    check_mu_recovery,
    check_critic_contract,
    check_risk_bound,
    check_backprop_fd,
)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in CHECKS]


__all__ = [
    "CheckResult",
    "check_collapse_optimality",
    "check_boltzmann_closed_form",
    "check_dual_gradient",
    "check_mu_recovery",
    "check_critic_contract",
    "check_risk_bound",
    "check_backprop_fd",
    "CHECKS",
    "run_all_checks",
]
