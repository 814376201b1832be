"""Synthetic conditional optimization tasks with controllable shift.

Each task has a closed-form oracle, seeded source/target context samplers
whose means differ (covariate shift), and a source design policy that
clusters near source-optimal designs. Surrogates either add an analytic
off-source bias to the oracle or are small regression nets trained on
source samples only, so the surrogate degrades exactly where the theory
says it should.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BooleanDim,
    Context,
    ContinuousDim,
    Design,
    DesignSpace,
    NumericError,
    encode_batch,
)
from .numerics import Layer, init_net, net_forward_batch, net_weighted_gradient, net_workspace


@dataclass
class Task:
    name: str
    kind: str  # "quadratic-dose" | "binary-regimen"
    space: DesignSpace
    ctx_dim: int
    description: str
    maximize: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        p = self.params
        self._m_src = np.asarray(p["m_source"], dtype=float)
        self._m_tgt = np.asarray(p["m_target"], dtype=float)
        if self.kind == "quadratic-dose":
            self._g_w = np.asarray(p["g_weights"], dtype=float)
        elif self.kind == "binary-regimen":
            self._W = np.asarray(p["w_matrix"], dtype=float)
            self._w0 = np.asarray(p["w_bias"], dtype=float)
            self._Q = np.asarray(p["q_matrix"], dtype=float)
            self._pattern = np.asarray(p["bump_pattern"], dtype=float)

    # -- oracle ---------------------------------------------------------

    def optimum_location(self, ctx: Context) -> float:
        """Closed-form argmax for the dose task (diagnostics only)."""
        if self.kind != "quadratic-dose":
            raise ValueError("only defined for the dose task")
        return float(self.params["g_bias"] + self._g_w @ np.asarray(ctx.features))

    def value_rows(self, designs) -> np.ndarray:
        """A batch's design values as an `(n, d)` float array, booleans as 0/1."""
        return np.array([d.values for d in designs], dtype=float).reshape(
            len(designs), len(self.space.dims))

    def oracle_values(self, designs, ctx: Context) -> np.ndarray:
        """Oracle values of a batch under one context: a list of designs, or
        their `value_rows`."""
        V = designs if isinstance(designs, np.ndarray) else self.value_rows(designs)
        z = np.asarray(ctx.features, dtype=float)
        if self.kind == "quadratic-dose":
            g = self.params["g_bias"] + float(self._g_w @ z)
            return -np.square(V[:, 0] - g)
        w = self._W @ z + self._w0
        return V @ w + ((V @ self._Q) * V).sum(axis=1)

    def oracle(self, design: Design, ctx: Context) -> float:
        return float(self.oracle_values([design], ctx)[0])

    # -- context sampling -------------------------------------------------

    def sample_context(self, rng: np.random.Generator, which: str, id: str = "") -> Context:
        mean = self._m_src if which == "source" else self._m_tgt
        z = rng.normal(mean, 1.0)
        return Context(features=tuple(z), id=id)

    # -- source design policy ---------------------------------------------

    def source_designs(self, rng: np.random.Generator, n: int) -> list[Design]:
        """Near-source-optimal designs plus noise (the projection of the
        source dataset onto the design space)."""
        out = []
        for _ in range(n):
            z = rng.normal(self._m_src, 1.0)
            if self.kind == "quadratic-dose":
                g = self.params["g_bias"] + float(self._g_w @ z)
                x = min(max(g + rng.normal(0.0, 3.0), 0.0), 100.0)
                out.append(Design((float(x),)))
            else:
                w = self._W @ z + self._w0
                bits = [bool(wi > 0) for wi in w]
                bits = [(not b) if rng.random() < 0.1 else b for b in bits]
                out.append(Design(tuple(bits)))
        return out

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ctx_dim": self.ctx_dim,
            "maximize": self.maximize,
            "description": self.description,
            "dims": [
                {"name": d.name, "type": type(d).__name__,
                 **({"lo": d.lo, "hi": d.hi} if isinstance(d, ContinuousDim) else {})}
                for d in self.space.dims
            ],
            "params": {k: v for k, v in self.params.items()},
        }


DOSE_DESCRIPTION = (
    "The provided design scores are predictions from a model trained on a "
    "different population of subjects and may not be accurate for this "
    "subject. Propose an optimal dose (0 to 100 units) for the subject."
)

REGIMEN_DESCRIPTION = (
    "The provided design scores are predictions from a model trained on a "
    "different population of subjects and may not be accurate for this "
    "subject. Propose an optimal regimen: for each component, choose "
    "whether to include it."
)


def make_dose_task(seed: int = 0) -> Task:
    ctx_dim = 4
    m_src = np.zeros(ctx_dim)
    m_tgt = np.ones(ctx_dim)  # ||m_tgt - m_src|| = 2
    return Task(
        name="dose",
        kind="quadratic-dose",
        space=DesignSpace((ContinuousDim("Dose", 0.0, 100.0),)),
        ctx_dim=ctx_dim,
        description=DOSE_DESCRIPTION,
        params={
            "seed": seed,
            "m_source": m_src.tolist(),
            "m_target": m_tgt.tolist(),
            "g_weights": [5.0] * ctx_dim,
            "g_bias": 50.0,
            "bump_center": 85.0,
            "bump_width": 6.0,
            "bump_amp": 600.0,
        },
    )


def make_regimen_task(seed: int = 0, n_bits: int = 16, q_scale: float = 0.05) -> Task:
    rng = np.random.default_rng([seed, 11])
    ctx_dim = 4
    W = rng.normal(0.0, 0.5, size=(n_bits, ctx_dim))
    w0 = rng.normal(0.0, 0.5, size=n_bits)
    A = rng.normal(0.0, q_scale, size=(n_bits, n_bits))
    Q = (A + A.T) / 2.0
    np.fill_diagonal(Q, 0.0)
    pattern = (rng.random(n_bits) < 0.5).astype(float)
    return Task(
        name="regimen",
        kind="binary-regimen",
        space=DesignSpace(tuple(BooleanDim(f"Drug{i + 1:02d}") for i in range(n_bits))),
        ctx_dim=ctx_dim,
        description=REGIMEN_DESCRIPTION,
        params={
            "seed": seed,
            "m_source": [0.0] * ctx_dim,
            "m_target": [1.0] * ctx_dim,
            "w_matrix": W.tolist(),
            "w_bias": w0.tolist(),
            "q_matrix": Q.tolist(),
            "bump_pattern": pattern.tolist(),
            "bump_amp": 8.0,
        },
    )


TASKS = {"dose": make_dose_task, "regimen": make_regimen_task}


def make_task(spec: dict) -> Task:
    name = spec["name"]
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}; known: {sorted(TASKS)}")
    return TASKS[name](seed=int(spec.get("seed", 0)))


def oracle_eval(task: Task, design: Design, ctx: Context) -> float:
    """Ground-truth value. Harness-only: optimizers never see this."""
    task.space.validate(design)
    return task.oracle(design, ctx)


# ---------------------------------------------------------------------------
# Surrogates
# ---------------------------------------------------------------------------


@dataclass
class OracleSurrogate:
    """The oracle itself, wrapped with the surrogate interface (used as the
    w=1 endpoint of shift-severity mixtures)."""

    task: Task

    def value(self, designs, ctx: Context) -> np.ndarray:
        return self.task.oracle_values(designs, ctx)


@dataclass
class AnalyticShiftSurrogate:
    """Oracle plus a smooth bump whose weight grows with the context's
    distance from the source mean: exact on-source, biased off-source."""

    task: Task
    beta: float = 0.5
    radius: float = 1.0

    def _bump(self, V: np.ndarray) -> np.ndarray:
        p = self.task.params
        if self.task.kind == "quadratic-dose":
            return p["bump_amp"] * np.exp(
                -np.square(V[:, 0] - p["bump_center"]) / (2.0 * p["bump_width"] ** 2))
        hamming = np.abs(V - self.task._pattern).sum(axis=1)
        return p["bump_amp"] * np.exp(-hamming / 2.0)

    def shift_weight(self, ctx: Context) -> float:
        z = np.asarray(ctx.features, dtype=float)
        return max(0.0, float(np.linalg.norm(z - self.task._m_src)) - self.radius)

    def value(self, designs, ctx: Context) -> np.ndarray:
        V = self.task.value_rows(designs)
        return (self.task.oracle_values(V, ctx)
                + self.beta * self.shift_weight(ctx) * self._bump(V))


@dataclass
class LearnedSurrogate:
    """Regression net over encoded design concatenated with context,
    trained on source samples only."""

    net: object
    space: DesignSpace
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def value(self, designs, ctx: Context) -> np.ndarray:
        enc = encode_batch(self.space, designs)
        Z = np.broadcast_to(np.asarray(ctx.features, dtype=float), (len(enc), len(ctx.features)))
        X = (np.concatenate([enc, Z], axis=1) - self.x_mean) / self.x_std
        return net_forward_batch(self.net, X) * self.y_std + self.y_mean


def train_regression_net(X: np.ndarray, y: np.ndarray, hidden=(128, 128), seed: int = 0,
                         lr: float = 0.05, iters: int = 4000, momentum: float = 0.9,
                         ridge: float = 1e-6):
    """Squared-loss regression: full-batch heavy-ball gradient descent to
    shape the hidden features, then an exact ridge least-squares solve for
    the output layer."""
    net = init_net((X.shape[1], *hidden, 1), seed=seed)
    n = X.shape[0]
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
    workspace = net_workspace(net, n)

    def loss_weights(out):
        resid = out - y
        loss = float((resid ** 2).mean())
        if not np.isfinite(loss):
            raise NumericError("surrogate training diverged")
        return -2.0 * resid / n  # ascent on -loss

    stage = max(1, iters // 5)
    for it in range(iters):
        step = lr * 0.5 ** (it // stage)
        grads = net_weighted_gradient(net, X, loss_weights, workspace)
        for layer, (gw, gb), (vw, vb) in zip(net.layers, grads, velocity):
            vw *= momentum
            vw += gw
            vb *= momentum
            vb += gb
            layer.weights += step * vw
            layer.biases += step * vb
    del workspace  # free the step buffers before the ridge solve allocates its own

    a = X
    for layer in net.layers[:-1]:
        a = np.maximum(a @ layer.weights.T + layer.biases, 0.0)
    H = np.concatenate([a, np.ones((len(a), 1))], axis=1)
    coef = np.linalg.solve(H.T @ H + ridge * np.eye(H.shape[1]), H.T @ y)
    net.layers[-1] = Layer(coef[:-1][None, :], coef[-1:], "id")
    return net


def make_learned_surrogate(task: Task, seed: int = 0, n_train: int = 768,
                           hidden=(128, 128), iters: int = 4000) -> LearnedSurrogate:
    rng = np.random.default_rng([seed, 21])
    ctxs = [task.sample_context(rng, "source", id=f"s{i}") for i in range(n_train)]
    designs = task.source_designs(rng, n_train)
    enc = encode_batch(task.space, designs)
    Z = np.stack([np.asarray(c.features, dtype=float) for c in ctxs])
    X = np.concatenate([enc, Z], axis=1)
    y = np.array([task.oracle(d, c) for d, c in zip(designs, ctxs)])

    x_mean, x_std = X.mean(axis=0), X.std(axis=0)
    x_std = np.where(x_std > 1e-9, x_std, 1.0)
    y_mean, y_std = float(y.mean()), float(y.std()) or 1.0
    Xn = (X - x_mean) / x_std
    yn = (y - y_mean) / y_std
    net = train_regression_net(Xn, yn, hidden=hidden, seed=seed, iters=iters)
    return LearnedSurrogate(net=net, space=task.space, x_mean=x_mean, x_std=x_std,
                            y_mean=y_mean, y_std=y_std)


SURROGATES = ("analytic-shift", "learned", "oracle")


def make_surrogate(task: Task, variant: str = "analytic-shift", seed: int = 0,
                   beta: float = 0.5, radius: float = 1.0, **kwargs):
    if variant == "analytic-shift":
        return AnalyticShiftSurrogate(task=task, beta=beta, radius=radius)
    if variant == "learned":
        return make_learned_surrogate(task, seed=seed, **kwargs)
    if variant == "oracle":
        return OracleSurrogate(task=task)
    raise ValueError(f"unknown surrogate variant {variant!r}; known: {SURROGATES}")


@dataclass
class MixtureSurrogate:
    """Pointwise convex combination w * f + (1 - w) * f_hat."""

    f: object
    f_hat: object
    w: float

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"mixture weight must be in [0, 1], got {self.w}")

    def value(self, designs, ctx: Context) -> np.ndarray:
        return self.w * self.f.value(designs, ctx) + (1.0 - self.w) * self.f_hat.value(designs, ctx)


# ---------------------------------------------------------------------------
# Empirical risk bound checking (1-D)
# ---------------------------------------------------------------------------


def exact_w1_1d(a, b) -> float:
    """Exact 1-Wasserstein distance between two 1-D empirical distributions
    (quantile-function integral; handles unequal sample sizes)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    qs = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    prev = 0.0
    total = 0.0
    for q in qs:
        ia = min(int(np.ceil(q * n)) - 1, n - 1)
        ib = min(int(np.ceil(q * m)) - 1, m - 1)
        total += abs(a[ia] - b[ib]) * (q - prev)
        prev = q
    return float(total)


def grid_lipschitz(fn, xs, grid_n: int = 2001) -> float:
    """Max difference quotient of a scalar function over a dense grid on the
    hull of `xs`, including the sample points themselves."""
    xs = np.asarray(xs, dtype=float)
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        return 0.0
    grid = np.union1d(np.linspace(lo, hi, grid_n), xs)
    vals = np.array([fn(x) for x in grid])
    quot = np.abs(np.diff(vals)) / np.diff(grid)
    pairwise = 0.0
    sample_vals = np.array([fn(x) for x in xs])
    for i in range(len(xs)):
        dx = np.abs(xs - xs[i])
        mask = dx > 0
        if mask.any():
            pairwise = max(pairwise, float((np.abs(sample_vals - sample_vals[i])[mask] / dx[mask]).max()))
    return max(float(np.nanmax(quot)) if len(quot) else 0.0, pairwise)


def theorem_s1_check(f, f_hat, train_pairs, test_inputs, k_f: float, k_fhat: float) -> dict:
    """Empirical test-risk bound for 1-D inputs.

    lhs = mean |f - f_hat| over the test inputs; rhs = mean train residual
    plus (k_f + k_fhat) times the exact 1-D transport distance between the
    train and test input distributions. Returns both sides for assertion.
    """
    xs_train = np.array([x for x, _ in train_pairs], dtype=float)
    ys_train = np.array([y for _, y in train_pairs], dtype=float)
    xs_test = np.asarray(test_inputs, dtype=float)
    if xs_train.ndim != 1 or xs_test.ndim != 1:
        raise ValueError("risk bound check is restricted to 1-D inputs")
    eps = float(np.mean(np.abs(ys_train - np.array([f_hat(x) for x in xs_train]))))
    lhs = float(np.mean(np.abs(np.array([f(x) for x in xs_test])
                               - np.array([f_hat(x) for x in xs_test]))))
    w1 = exact_w1_1d(xs_train, xs_test)
    rhs = eps + (k_f + k_fhat) * w1
    return {"lhs": lhs, "rhs": rhs, "eps": eps, "w1": w1}


__all__ = [
    "Task",
    "TASKS",
    "make_task",
    "make_dose_task",
    "make_regimen_task",
    "oracle_eval",
    "OracleSurrogate",
    "AnalyticShiftSurrogate",
    "LearnedSurrogate",
    "MixtureSurrogate",
    "SURROGATES",
    "make_surrogate",
    "make_learned_surrogate",
    "train_regression_net",
    "exact_w1_1d",
    "grid_lipschitz",
    "theorem_s1_check",
]
