"""Source critic: the optimal-transport potential of the source pool.

The loop's constraint is W1(p_src, q) <= w0, whose dual between two finite
row sets has a closed-form maximizer, so nothing is trained. A critic is
the encoded pool rows s_i and a potential f_i on each; its value at a row x
is the c-transform phi(x) = max_i (f_i - c(x, s_i)), 1-Lipschitz in the
cost c(x, y) = ||x - y||_2 / sqrt(d), which is at most 1 on encoded rows
(the unit cube), so `w0` is a fraction of the cube's diameter. On the
boolean columns of the design space, where every entry is 0 or 1, the
squared distance is a count of mismatches, taken by one matrix product;
the continuous columns keep a blocked sum of squared differences.
`critic_train` refits f to a batch by 20 Sinkhorn iterations (Cuturi 2013)
with eps = 0.05 * mean cost, warm-started from the critic's f; `w1_estimate`
of its values is a lower bound on the exact W1 of the pool and the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import DesignSpace, NumericError, encode_batch
# perfbench's tracer wraps these three names here; the critic calls none of them
from .numerics import net_forward_batch, net_gradient, sgd_step  # noqa: F401

EPS_SCALE = 0.05  # eps = EPS_SCALE * mean cost
ITERS = 20  # Sinkhorn iterations per `critic_train`
_TINY = 1e-100  # smallest kernel sum an exp-domain half step divides by


@dataclass
class SourcePool:
    """Designs drawn from the source distribution: their `(n, d)` value rows
    (`Task.source_designs`) and those rows checked and encoded once. No
    context data: the critic's domain is the design space only."""

    space: DesignSpace
    values: np.ndarray
    encoded: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("source pool must be non-empty")
        self.encoded = encode_batch(self.space, self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Critic:
    """Encoded pool rows `(n, d)`, their columns' boolean mask `(d,)`, their
    potentials `f` and `(n, n)` costs."""

    pool: np.ndarray
    is_bool: np.ndarray
    f: np.ndarray
    pool_cost: np.ndarray


def cost_matrix(X: np.ndarray, Y: np.ndarray, is_bool: np.ndarray) -> np.ndarray:
    """`(n, m)` matrix of c(x, y) = ||x - y||_2 / sqrt(d) between the rows
    of X `(n, d)` and Y `(m, d)`, whose columns the `(d,)` bool array
    `is_bool` marks as boolean; exactly 0 between equal rows. The squared
    distance has two terms. On the boolean columns, each entry 0 or 1 as
    `encode_batch` leaves it, it is the mismatch count
    `X @ (1 - Y).T + (1 - X) @ Y.T`: an integer, so the exact bits of a sum
    of squared differences. On the continuous columns it is that sum, taken
    over blocks of X's rows so that no more than about 2**15 differences
    are held. Rows of another width, or another mask, raise ValueError,
    where a broadcast would not."""
    if (X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]
            or not isinstance(is_bool, np.ndarray) or is_bool.dtype != bool
            or is_bool.shape != (X.shape[1],)):
        raise ValueError("the cost needs two (n, d) arrays of rows of one width "
                         "and a (d,) boolean mask of their columns")
    n_bool, d = np.count_nonzero(is_bool), X.shape[1]
    out = np.zeros((len(X), len(Y)))
    if n_bool < d:
        Xc, Yc = (X, Y) if n_bool == 0 else (X[:, ~is_bool], Y[:, ~is_bool])
        rows = max(1, 2**15 // max(1, Yc.size))
        for i in range(0, len(X), rows):
            diff = Xc[i:i + rows, None, :] - Yc[None, :, :]
            np.einsum("ijk,ijk->ij", diff, diff, out=out[i:i + rows])
            del diff  # free this block before the next one is built
    if n_bool > 0:
        Xb, Yb = (X, Y) if n_bool == d else (X[:, is_bool], Y[:, is_bool])
        out += Xb @ (1.0 - Yb).T
        out += (1.0 - Xb) @ Yb.T
    return np.sqrt(out / d, out=out)


def init_critic(pool_enc: np.ndarray, is_bool: np.ndarray) -> Critic:
    """Critic with f = 0 on the encoded pool rows, whose columns `is_bool`
    marks as boolean (`DesignSpace.is_bool`)."""
    pool_cost = cost_matrix(pool_enc, pool_enc, is_bool)
    if len(pool_cost) == 0:
        raise ValueError("the pool must be non-empty")
    return Critic(pool_enc, is_bool, np.zeros(len(pool_enc)), pool_cost)


def critic_values(critic: Critic, X: np.ndarray) -> np.ndarray:
    """Critic value of each row of an encoded `(n, d)` batch."""
    return (critic.f[:, None] - cost_matrix(critic.pool, X, critic.is_bool)).max(axis=0)


def w1_estimate(src_values: np.ndarray, gen_values: np.ndarray) -> float:
    """Mean critic value over the source rows minus that over the generated rows."""
    if len(src_values) == 0 or len(gen_values) == 0:
        raise ValueError("empty batch")
    return float(src_values.mean() - gen_values.mean())


def _soft_transform(C: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    """The log-domain Sinkhorn half step from row potentials p to column
    potentials q_j = -eps * (log m + log sum_i exp((p_i - C_ij) / eps))."""
    Z = (p[:, None] - C) / eps
    top = Z.max(axis=0)
    return -eps * (np.log(C.shape[1]) + top + np.log(np.exp(Z - top).sum(axis=0)))


def _sinkhorn(C: np.ndarray, f: np.ndarray, eps: float) -> np.ndarray:
    """Row potentials after ITERS Sinkhorn iterations (v = b / K^T u, then
    u = a / K v, uniform a and b) on the `(n, m)` cost C, started from f.
    The scalings run in the exp domain on K = exp((f_i + g_j - C_ij) / eps).
    The first iteration, and any whose kernel sums fall below _TINY (a row
    far from the other set, or an f far wider than eps), absorbs u into f
    and runs in the log domain; where the plain recipe stays finite, both
    give its iterates."""
    n, m = C.shape
    u, K = np.ones(n), None
    for _ in range(ITERS):
        if K is not None:
            s = u @ K
            if np.minimum.reduce(s) >= _TINY:  # s.min() without its Python wrapper
                s = K @ ((1 / m) / s)
                if np.minimum.reduce(s) >= _TINY:
                    u = (1 / n) / s
                    continue
        g = _soft_transform(C, f + eps * np.log(u), eps)
        f = _soft_transform(C.T, g, eps)
        u, K = np.ones(n), np.exp((f[:, None] + g - C) / eps)
    return f + eps * np.log(u)


def critic_train(critic: Critic,
                 gen_enc: np.ndarray) -> tuple[Critic, np.ndarray, np.ndarray, np.ndarray]:
    """The critic refit to an encoded batch by one Sinkhorn solve over every
    pool and batch row, its values on the pool and on the batch, and the
    batch's values under the given critic (`critic_values(critic, gen_enc)`),
    all from one pool x batch cost. The input is not changed; non-finite
    rows or potentials raise NumericError."""
    C = cost_matrix(critic.pool, gen_enc, critic.is_bool)
    if len(gen_enc) == 0:
        raise ValueError("empty batch")
    eps = EPS_SCALE * float(C.mean())
    if not (np.isfinite(eps) and np.isfinite(critic.f).all()):
        raise NumericError("critic training got a non-finite row or potential")
    # eps = 0: every row is one point, W1 = 0, and any f is optimal
    f = _sinkhorn(C, critic.f, eps) if eps > 0 else critic.f
    return (replace(critic, f=f), (f[:, None] - critic.pool_cost).max(axis=0),
            (f[:, None] - C).max(axis=0), (critic.f[:, None] - C).max(axis=0))


__all__ = ["SourcePool", "Critic", "cost_matrix", "init_critic", "critic_values", "w1_estimate",
           "critic_train"]
