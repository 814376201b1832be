"""Synthetic conditional optimization tasks with controllable shift.

Each task has a closed-form oracle, seeded source/target context samplers
whose means differ (covariate shift), and a source design policy that
clusters near source-optimal designs. Surrogates either add an analytic
off-source bias to the oracle or are small regression nets trained on
source samples only, so the surrogate degrades exactly where the theory
says it should. The oracle is no surrogate variant: it enters as the w = 1
end of a `MixtureSurrogate`, the `weights: [1]` cohort of a config.
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
    read_float,
)
from .numerics import NetWorkspace, init_net, net_forward_batch, net_hidden, net_weighted_gradient


@dataclass
class Task:
    name: str
    kind: str  # "quadratic-dose" | "binary-regimen"
    space: DesignSpace
    ctx_dim: int
    description: str
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
        # plain attributes, so that `==`, `repr` and field digests do not see them
        self._term_ctx = self._term = None

    # -- oracle ---------------------------------------------------------

    def _context_term(self, ctx: Context):
        """The oracle's context term, `g_bias + g_w . z` on dose and
        `W z + w0` on regimen, computed once for the last context asked
        about. The memo is keyed on that object and holds it, so no later
        object can take its id; an equal copy is computed afresh."""
        if ctx is not self._term_ctx:
            z = np.asarray(ctx.features, dtype=float)
            if self.kind == "quadratic-dose":
                term = self.params["g_bias"] + float(self._g_w @ z)
            else:
                term = self._W @ z + self._w0
            self._term_ctx, self._term = ctx, term
        return self._term

    def optimum_location(self, ctx: Context) -> float:
        """Closed-form argmax for the dose task (diagnostics only)."""
        if self.kind != "quadratic-dose":
            raise ValueError("only defined for the dose task")
        return self._context_term(ctx)

    def oracle_values(self, V: np.ndarray, ctx: Context) -> np.ndarray:
        """Oracle values of `(n, d)` design value rows under one context."""
        if self.kind == "quadratic-dose":
            return -np.square(V[:, 0] - self._context_term(ctx))
        return V @ self._context_term(ctx) + ((V @ self._Q) * V).sum(axis=1)

    def oracle(self, design: Design, ctx: Context) -> float:
        return float(self.oracle_values(np.array([design.values], dtype=float), ctx)[0])

    # -- context sampling -------------------------------------------------

    def sample_context(self, rng: np.random.Generator, which: str, id: str = "") -> Context:
        mean = self._m_src if which == "source" else self._m_tgt
        z = rng.normal(mean, 1.0)
        return Context(features=tuple(z), id=id)

    # -- source design policy ---------------------------------------------

    def source_designs(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """`(n, d)` value rows of near-source-optimal designs plus noise (the
        projection of the source dataset onto the design space)."""
        out = np.empty((n, len(self.space.dims)))
        for i in range(n):
            z = rng.normal(self._m_src, 1.0)
            if self.kind == "quadratic-dose":
                g = self.params["g_bias"] + float(self._g_w @ z)
                out[i] = min(max(g + rng.normal(0.0, 3.0), 0.0), 100.0)
            else:
                bits = (self._W @ z + self._w0) > 0
                out[i] = bits != (rng.random(len(bits)) < 0.1)
        return out

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ctx_dim": self.ctx_dim,
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

    def value(self, V: np.ndarray, ctx: Context) -> np.ndarray:
        return self.task.oracle_values(V, ctx)


@dataclass
class AnalyticShiftSurrogate:
    """Oracle plus a smooth bump whose weight grows with the context's
    distance from the source mean: exact on-source, biased off-source."""

    task: Task
    beta: float = 0.5
    radius: float = 1.0

    def __post_init__(self):
        self._dist_ctx = self._dist = None  # plain attributes, as in `Task`

    def _bump(self, V: np.ndarray) -> np.ndarray:
        p = self.task.params
        if self.task.kind == "quadratic-dose":
            return p["bump_amp"] * np.exp(
                -np.square(V[:, 0] - p["bump_center"]) / (2.0 * p["bump_width"] ** 2))
        hamming = np.abs(V - self.task._pattern).sum(axis=1)
        return p["bump_amp"] * np.exp(-hamming / 2.0)

    def shift_weight(self, ctx: Context) -> float:
        """The bump's weight: the context's distance from the source mean
        beyond `radius`, the distance computed once for the last context
        asked about."""
        if ctx is not self._dist_ctx:
            z = np.asarray(ctx.features, dtype=float)
            self._dist_ctx, self._dist = ctx, float(np.linalg.norm(z - self.task._m_src))
        return max(0.0, self._dist - self.radius)

    def value(self, V: np.ndarray, ctx: Context) -> np.ndarray:
        return (self.task.oracle_values(V, ctx)
                + self.beta * self.shift_weight(ctx) * self._bump(V))


@dataclass(eq=False)
class LearnedSurrogate:
    """Regression net over encoded design concatenated with context,
    trained on source samples only."""

    net: object
    space: DesignSpace
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def value(self, V: np.ndarray, ctx: Context) -> np.ndarray:
        enc = encode_batch(self.space, V)
        Z = np.broadcast_to(np.asarray(ctx.features, dtype=float), (len(enc), len(ctx.features)))
        X = (np.concatenate([enc, Z], axis=1) - self.x_mean) / self.x_std
        return net_forward_batch(self.net, X) * self.y_std + self.y_mean


def train_regression_net(X: np.ndarray, y: np.ndarray, hidden=(128, 128), seed: int = 0,
                         lr: float = 0.05, iters: int = 4000, momentum: float = 0.9,
                         ridge: float = 1e-6):
    """Squared-loss regression: full-batch heavy-ball gradient descent in
    float32 to shape the hidden features, then, on the net cast to float64,
    an exact ridge least-squares solve for the output layer. Raises
    `NumericError` when the descent diverges.

    Each step's gradient pass carries delta through live units only (see
    `numerics._backward`), so hidden units that have died cost no backprop.
    Velocity entries below float32's smallest normal, 2**-126, are set to
    0: a dead unit's velocity would otherwise decay to a subnormal that
    momentum never rounds to 0, and subnormal arithmetic is slow. The flush
    changes no bit of a net whose parameters exceed lr * 2**-102 and whose
    nonzero gradient entries exceed 2**-102 in size: a flushed step * v is
    under lr * 2**-126, and a flushed momentum * v under 2**-126, each
    under half an ulp of what it would have been added to.

    The descent stops early, and exactly, once a step's pass finds no unit
    of the last hidden layer live on any row (`NetWorkspace.
    last_hidden_dead`) and the step's update leaves every hidden weight and
    bias as it was, bit for bit (bits, not values, so that a -0.0 turned
    +0.0 counts as a move). The next pass then sees the same hidden layers,
    so the layer is still dead and every hidden gradient is 0. For 0 <=
    momentum < 1 each hidden velocity entry becomes momentum * v rounded,
    or a flushed 0: of v's sign and no larger in size. The step size does
    not grow, so neither does the update step * v, and as rounding is
    monotone, a weight W plus it rounds to a value between W and W plus
    the last update, which rounded to W. By induction no later step moves
    a hidden bit. (The one bit rounding could still flip is the sign of a
    -0.0 parameter, to +0.0. A sum is -0.0 only when both terms are, so
    that needs `init_net` to draw a weight that rounds to -0.0 in float32,
    of size under 2**-150.) The skipped steps move only the output layer,
    which the ridge solve overwrites. Nor could they raise: the output
    weights' gradient is 0, so their velocity only decays, and the output
    unit reads its bias b on every row, so the loss is the 1-D quadratic
    mean((b - y)**2), on which heavy ball is stable for |momentum| < 1 and
    0 <= step < 1 + momentum. The stop is taken only when 0 <= momentum <
    1 and 0 <= lr (the largest step) < 1 + momentum: a negative momentum
    flips the velocity's sign every step, so a later update could round a
    weight the other way. A wholly dead layer below the last one is no
    fixed point: the last hidden layer's biases still get a gradient."""
    net = init_net((X.shape[1], *hidden, 1), seed=seed).astype(np.float32)
    n = X.shape[0]
    X32, y32 = X.astype(np.float32), y.astype(np.float32)
    velocity = np.zeros_like(net.params)
    tiny = np.finfo(np.float32).tiny
    subnormal = np.empty(velocity.shape, dtype=bool)
    workspace = NetWorkspace(net, n)

    def loss_weights(out):
        resid = out - y32
        loss = float((resid ** 2).mean())
        if not np.isfinite(loss):
            raise NumericError("surrogate training diverged")
        return -2.0 * resid / n  # ascent on -loss

    hidden_bits = net.params[:net.params.size - net.layers[-1].weights.size - 1].view(np.uint32)
    before = np.empty_like(hidden_bits)
    can_stop = 0.0 <= momentum < 1.0 and 0.0 <= lr < 1.0 + momentum
    stage = max(1, iters // 5)
    for it in range(iters):
        step = lr * 0.5 ** (it // stage)
        grad = net_weighted_gradient(net, X32, loss_weights, workspace)
        velocity *= momentum
        velocity += grad
        np.less(np.abs(velocity, out=grad), tiny, out=subnormal)  # grad is used up
        np.copyto(velocity, 0.0, where=subnormal)
        dead = can_stop and workspace.last_hidden_dead
        if dead:
            np.copyto(before, hidden_bits)
        net.params += np.multiply(velocity, step, out=grad)
        if dead and np.array_equal(hidden_bits, before):
            break  # the hidden layers are a fixed point
    del workspace  # free the step buffers before the ridge solve allocates its own
    # the loss is checked before each step, so this catches the last one
    if not np.isfinite(net.params).all():
        raise NumericError("surrogate training diverged")

    net = net.astype(float)
    a = net_hidden(net, X)
    H = np.concatenate([a, np.ones((len(a), 1))], axis=1)
    coef = np.linalg.solve(H.T @ H + ridge * np.eye(H.shape[1]), H.T @ y)
    out = net.layers[-1]  # the linear output unit; its arrays are views of net.params
    out.weights[0] = coef[:-1]
    out.biases[:] = coef[-1:]
    return net


def make_learned_surrogate(task: Task, seed: int = 0, n_train: int = 768,
                           hidden=(128, 128), iters: int = 4000) -> LearnedSurrogate:
    rng = np.random.default_rng([seed, 21])
    ctxs = [task.sample_context(rng, "source", id=f"s{i}") for i in range(n_train)]
    V = task.source_designs(rng, n_train)
    enc = encode_batch(task.space, V)
    Z = np.stack([np.asarray(c.features, dtype=float) for c in ctxs])
    X = np.concatenate([enc, Z], axis=1)
    y = np.array([task.oracle_values(V[i:i + 1], c)[0] for i, c in enumerate(ctxs)])

    x_mean, x_std = X.mean(axis=0), X.std(axis=0)
    x_std = np.where(x_std > 1e-9, x_std, 1.0)
    y_mean, y_std = float(y.mean()), float(y.std()) or 1.0
    Xn = (X - x_mean) / x_std
    yn = (y - y_mean) / y_std
    net = train_regression_net(Xn, yn, hidden=hidden, seed=seed, iters=iters)
    return LearnedSurrogate(net=net, space=task.space, x_mean=x_mean, x_std=x_std,
                            y_mean=y_mean, y_std=y_std)


SURROGATES = ("analytic-shift", "learned")


def make_surrogate(task: Task, variant: str = "analytic-shift", seed: int = 0,
                   beta: float = 0.5, radius: float = 1.0):
    if variant == "analytic-shift":
        return AnalyticShiftSurrogate(task=task, beta=beta, radius=radius)
    if variant == "learned":
        return make_learned_surrogate(task, seed=seed)
    raise ValueError(f"unknown surrogate variant {variant!r}; known: {SURROGATES}")


@dataclass
class MixtureSurrogate:
    """Pointwise convex combination w * f + (1 - w) * f_hat."""

    f: object
    f_hat: object
    w: float

    def __post_init__(self):
        self.w = read_float(self.w, "mixture weight", 0.0, 1.0)

    def value(self, V: np.ndarray, ctx: Context) -> np.ndarray:
        return self.w * self.f.value(V, ctx) + (1.0 - self.w) * self.f_hat.value(V, ctx)


# ---------------------------------------------------------------------------
# Empirical risk bound checking (1-D)
# ---------------------------------------------------------------------------


def exact_w1_1d(a, b) -> float:
    """Exact 1-Wasserstein distance between two 1-D empirical distributions:
    the integral of |F_a - F_b| over the merged sorted sample, exact for
    unequal sample sizes."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample")
    x = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, x[:-1], side="right") / len(a)
    cdf_b = np.searchsorted(b, x[:-1], side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b) @ np.diff(x))


def grid_lipschitz(fn, xs, grid_n: int = 2001) -> float:
    """Max difference quotient of a scalar function over a dense grid on the
    hull of `xs`, including the sample points themselves. The quotient
    between any two grid points, sample points included, is a weighted mean
    of the adjacent quotients between them, so the adjacent ones suffice."""
    xs = np.asarray(xs, dtype=float)
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        return 0.0
    grid = np.union1d(np.linspace(lo, hi, grid_n), xs)
    vals = np.array([fn(x) for x in grid])
    quot = np.abs(np.diff(vals)) / np.diff(grid)
    return float(np.nanmax(quot)) if len(quot) else 0.0


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
