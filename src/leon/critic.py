"""Adversarial source critic.

A weight-clipped scalar network trained by gradient ascent on the mean
difference between its values on source designs and on generated designs.
That mean difference is a lower-bound estimate of the 1-Wasserstein
distance between the two empirical distributions (up to the critic's
Lipschitz constant).

Contract: `critic_values`, `w1_estimate` and `critic_train` take designs
already encoded as `(n, d)` arrays (`core.encode_batch`, or
`SourcePool.encoded` for the source side), so a caller encodes each batch
once and reuses it for evaluation, training and the W1 estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Design, DesignSpace, NumericError, encode_batch
from .numerics import (DenseNet, init_net, net_forward_batch, net_gradient, net_workspace,
                       sgd_step)

DEFAULT_CLIP = 0.01


@dataclass
class CriticModel:
    net: DenseNet
    clip: float = DEFAULT_CLIP


@dataclass
class SourcePool:
    """Designs drawn from the source distribution, with an encoded cache.

    Carries no context data: the critic's domain is the design space only.
    """

    space: DesignSpace
    designs: list[Design]
    encoded: np.ndarray = field(default=None)

    def __post_init__(self):
        if len(self.designs) == 0:
            raise ValueError("source pool must be non-empty")
        if self.encoded is None:
            self.encoded = encode_batch(self.space, self.designs)

    def __len__(self) -> int:
        return len(self.designs)


def init_critic(space: DesignSpace, hidden=(64, 64), seed: int = 0,
                clip: float = DEFAULT_CLIP) -> CriticModel:
    """Fresh critic with all parameters uniform in [-clip, clip]."""
    sizes = (space.encoded_width, *hidden, 1)
    return CriticModel(net=init_net(sizes, seed=seed, scale=clip), clip=clip)


def critic_values(critic: CriticModel, X: np.ndarray) -> np.ndarray:
    """Critic value of each row of an encoded `(n, d)` batch."""
    return net_forward_batch(critic.net, X)


def w1_estimate(critic: CriticModel, src_enc: np.ndarray, gen_enc: np.ndarray) -> float:
    """Mean critic value over the encoded source batch minus mean over the
    encoded generated batch. Antisymmetric under swapping the batches."""
    if len(src_enc) == 0 or len(gen_enc) == 0:
        raise ValueError("empty batch")
    return float(critic_values(critic, src_enc).mean() - critic_values(critic, gen_enc).mean())


def critic_train(critic: CriticModel, src_enc: np.ndarray, gen_enc: np.ndarray, lr: float,
                 tol: float = 1e-4, max_iters: int = 500, seed: int = 0,
                 src_subsample: int = 512) -> CriticModel:
    """Gradient-ascend the dual estimate on encoded source and generated
    batches, clamping all parameters to [-clip, clip] after every step.

    Each iteration is one `net_gradient` pass, which also gives the estimate
    of the net it steps from. Training stops, before stepping, once the
    estimate of the stepped nets has changed by less than `tol` for 5
    consecutive iterations, or after `max_iters` steps; a non-finite
    estimate raises `NumericError`. The source side uses all rows when it
    has at most `src_subsample`, otherwise a seeded uniform subsample per
    iteration, which the iteration's estimate is taken on too.
    """
    if lr <= 0:
        raise ValueError("lr must be > 0")
    if len(gen_enc) == 0:
        raise ValueError("empty generated batch")
    rng = np.random.default_rng(seed)
    net = critic.net.copy()
    workspace = net_workspace(net, min(len(src_enc), src_subsample) + len(gen_enc))
    prev = None
    calm = 0
    for it in range(max_iters + 1):
        if len(src_enc) <= src_subsample:
            src_rows = src_enc
        else:
            src_rows = src_enc[rng.choice(len(src_enc), size=src_subsample, replace=False)]
        grads, est = net_gradient(net, src_rows, gen_enc, workspace)
        if it > 0:  # `est` is the estimate of the net after `it` steps
            if not np.isfinite(est):
                raise NumericError("critic training produced a non-finite estimate")
            calm = calm + 1 if prev is not None and abs(est - prev) < tol else 0
            prev = est
        if calm >= 5 or it == max_iters:
            break
        sgd_step(net, grads, lr, critic.clip)
    return CriticModel(net=net, clip=critic.clip)


__all__ = [
    "DEFAULT_CLIP",
    "CriticModel",
    "SourcePool",
    "init_critic",
    "critic_values",
    "w1_estimate",
    "critic_train",
]
