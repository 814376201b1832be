"""Adversarial source critic.

A critic is a plain `numerics.DenseNet` with a scalar output, every
parameter kept in [-CLIP, CLIP], trained by gradient ascent on the mean
difference between its values on source designs and on generated designs.
That mean difference is a lower-bound estimate of the 1-Wasserstein
distance between the two empirical distributions (up to the critic's
Lipschitz constant).

Contract: `critic_values` and `critic_train` take the net and designs
already encoded as `(n, d)` arrays (`core.encode_batch`, or
`SourcePool.encoded`). Every training pass runs on all source rows and the
whole generated batch, and `critic_train` returns the trained net with its
last pass's values on both batches, which `w1_estimate` takes, so no batch
is encoded or evaluated twice.

Training works on the net's one flat parameter vector (`DenseNet.params`):
each step is one finiteness check, one add and one clip over it. A
`critic_train` call allocates one `numerics.NetWorkspace` for the source
pool plus the batch, so its passes' input rows, activations, deltas and
gradient are allocated once per call, not per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DesignSpace, NumericError, encode_batch
from .numerics import DenseNet, NetWorkspace, init_net, net_forward_batch, net_gradient, sgd_step

CLIP = 0.01


@dataclass
class SourcePool:
    """Designs drawn from the source distribution: their `(n, d)` value rows
    (`Task.source_designs`) and those rows checked and encoded once.

    Carries no context data: the critic's domain is the design space only.
    """

    space: DesignSpace
    values: np.ndarray
    encoded: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("source pool must be non-empty")
        self.encoded = encode_batch(self.space, self.values)

    def __len__(self) -> int:
        return len(self.values)


def init_critic(space: DesignSpace, hidden=(64, 64), seed: int = 0) -> DenseNet:
    """Fresh critic with all parameters uniform in [-CLIP, CLIP]."""
    return init_net((space.encoded_width, *hidden, 1), seed=seed, scale=CLIP)


def critic_values(critic: DenseNet, X: np.ndarray) -> np.ndarray:
    """Critic value of each row of an encoded `(n, d)` batch."""
    return net_forward_batch(critic, X)


def w1_estimate(src_values: np.ndarray, gen_values: np.ndarray) -> float:
    """Mean critic value over the source rows minus mean over the generated
    rows. Antisymmetric under swapping the batches."""
    if len(src_values) == 0 or len(gen_values) == 0:
        raise ValueError("empty batch")
    return float(src_values.mean() - gen_values.mean())


def critic_train(critic: DenseNet, src_enc: np.ndarray, gen_enc: np.ndarray, lr: float,
                 tol: float = 1e-4, max_iters: int = 500) -> tuple[DenseNet, np.ndarray, np.ndarray]:
    """Gradient-ascend the dual estimate on encoded source and generated
    batches, clamping all parameters to [-CLIP, CLIP] after every step.

    Each iteration is one `net_gradient` pass over every source and
    generated row, which also gives the estimate of the net it steps from.
    Training stops, before stepping, once the estimate of the stepped nets
    has changed by less than `tol` for 5 consecutive iterations, or after
    `max_iters` steps; the pass that stops it runs forward only. A
    non-finite estimate raises `NumericError`. Returns the trained net and
    its values on the source and generated rows of the pass that ended
    training; the input net is not stepped.
    """
    if lr <= 0:
        raise ValueError("lr must be > 0")
    if len(gen_enc) == 0:
        raise ValueError("empty generated batch")
    net = critic.copy()
    n_src = len(src_enc)
    workspace = NetWorkspace(net, n_src + len(gen_enc))
    prev = None
    calm = 0

    def stop(est):  # `est` is the estimate of the net after `it` steps
        nonlocal prev, calm
        if it > 0:
            if not np.isfinite(est):
                raise NumericError("critic training produced a non-finite estimate")
            calm = calm + 1 if prev is not None and abs(est - prev) < tol else 0
            prev = est
        return calm >= 5 or it == max_iters

    for it in range(max_iters + 1):
        grad, _ = net_gradient(net, src_enc, gen_enc, workspace, stop)
        if grad is None:
            break
        sgd_step(net, grad, lr, CLIP)
    values = workspace.acts[-1][:, 0]  # outputs of the last pass, which are the returned net's
    return net, values[:n_src].copy(), values[n_src:].copy()


__all__ = [
    "CLIP",
    "SourcePool",
    "init_critic",
    "critic_values",
    "w1_estimate",
    "critic_train",
]
