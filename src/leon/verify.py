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
from .core import ContinuousDim, Design, DesignSpace, encode_batch
from .critic import critic_train, init_critic, w1_estimate
from .numerics import (
    flatten_params,
    init_net,
    net_gradient,
    net_forward_batch,
    net_workspace,
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


def check_boltzmann_closed_form(seed: int = 0, instances: int = 20, step: float = 1e-3,
                                weights_fn=None) -> CheckResult:
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
    if weights_fn is None:
        weights_fn = lambda stats, mu: boltzmann_weights(stats, mu)  # noqa: E731
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
        stats = ClassStats(class_ids=(0, 1, 2), q_hat=np.ones(3) / 3,
                           best_rows=np.arange(3), best_values=s)
        closed = weights_fn(stats, mu)

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

        stats = ClassStats(class_ids=tuple(range(n)), q_hat=np.ones(n) / n,
                           best_rows=np.arange(n), best_values=f + lam * c)
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
        stats = ClassStats(class_ids=(0, 1, 2, 3), q_hat=q, best_rows=np.arange(4),
                           best_values=s)
        mu_exact = estimate_mu(stats, prev_mu=1.0, mu_max=100.0)
        worst_exact = max(worst_exact, abs(mu_exact - mu_true))

        draws = rng.choice(4, size=n_samples, p=q)
        q_hat = np.bincount(draws, minlength=4) / n_samples
        keep = q_hat > 0
        noisy = ClassStats(class_ids=tuple(np.where(keep)[0]), q_hat=q_hat[keep],
                           best_rows=np.flatnonzero(keep), best_values=s[keep])
        mu_noisy = estimate_mu(noisy, prev_mu=1.0, mu_max=100.0)
        worst_noisy = max(worst_noisy, abs(mu_noisy - mu_true) / mu_true)
    passed = worst_exact <= 1e-9 and worst_noisy <= 0.10
    return CheckResult("mu-recovery", passed,
                       f"exact err {worst_exact:.2e}, noisy rel err {worst_noisy:.3f}",
                       time.time() - t0)


# ---------------------------------------------------------------------------
# Check 5: critic training contract
# ---------------------------------------------------------------------------


def check_critic_contract(seed: int = 0) -> CheckResult:
    t0 = time.time()
    space = DesignSpace((ContinuousDim("x", 0.0, 1.0),))
    rng = np.random.default_rng(seed)

    same = encode_batch(space, [Design((float(v),)) for v in rng.uniform(0.2, 0.8, size=32)])
    critic = init_critic(space, hidden=(64, 64), seed=seed)
    trained_same, *same_values = critic_train(critic, same, same, lr=0.001, seed=seed)
    est_same = w1_estimate(*same_values)

    src = np.linspace(0.0, 0.2, 24)
    gen = np.linspace(0.8, 1.0, 24)
    src_enc = encode_batch(space, [Design((float(v),)) for v in src])
    gen_enc = encode_batch(space, [Design((float(v),)) for v in gen])
    critic2 = init_critic(space, hidden=(64, 64), seed=seed + 1)
    trained, *values = critic_train(critic2, src_enc, gen_enc, lr=0.001, max_iters=500, seed=seed)
    est = w1_estimate(*values)
    true_w1 = exact_w1_1d(src, gen)

    max_param = max(float(np.abs(flatten_params(m.net)).max())
                    for m in (trained_same, trained))
    clip_ok = max_param <= 0.01 + 1e-15
    same_ok = abs(est_same) <= 0.05
    positive_ok = est > 0 and est <= true_w1 + 0.05
    passed = clip_ok and same_ok and positive_ok
    return CheckResult(
        "critic-contract", passed,
        f"max|param| {max_param:.6f}, same-dist est {est_same:.6f}, "
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
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            smallest = min(smallest, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        else:
            a = z
    return smallest


def check_backprop_fd(seed: int = 0, nets: int = 20, h: float = 1e-5) -> CheckResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(nets):
        for attempt in range(100):
            dims = [int(rng.integers(1, 5)), int(rng.integers(2, 8)), int(rng.integers(2, 8)), 1]
            net = init_net(dims, seed=seed * 10007 + i * 101 + attempt)
            pos = rng.normal(0, 1, size=(int(rng.integers(2, 6)), dims[0]))
            neg = rng.normal(0, 1, size=(int(rng.integers(2, 6)), dims[0]))
            if _min_abs_preactivation(net, np.concatenate([pos, neg])) > 100 * h:
                break
        grads, _ = net_gradient(net, pos, neg, net_workspace(net, len(pos) + len(neg)))
        analytic = np.concatenate([np.concatenate([g[0].ravel(), g[1]]) for g in grads])

        def objective(n):
            return float(net_forward_batch(n, pos).mean() - net_forward_batch(n, neg).mean())

        fd = np.zeros_like(analytic)
        idx = 0
        for layer in net.layers:
            for arr_name in ("weights", "biases"):
                flat = getattr(layer, arr_name).ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + h
                    up = objective(net)
                    flat[j] = orig - h
                    dn = objective(net)
                    flat[j] = orig
                    fd[idx] = (up - dn) / (2 * h)
                    idx += 1
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
