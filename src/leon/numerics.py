"""Minimal numeric kernel.

Dense feed-forward nets with hand-rolled backprop (no autodiff dependency),
simple-regression slope, seeded euclidean k-means, and entropy/softmax
helpers. Everything here is pure given explicit inputs and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericError


# ---------------------------------------------------------------------------
# Dense networks
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("relu", "id")


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    activation: str = "relu"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("layer shape mismatch")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class DenseNet:
    layers: list[Layer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError("consecutive layer shapes incompatible")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    def copy(self) -> "DenseNet":
        return DenseNet(
            [Layer(l.weights.copy(), l.biases.copy(), l.activation) for l in self.layers]
        )


def init_net(sizes, seed, activation="relu", scale=None) -> DenseNet:
    """Scalar-output net with hidden `activation` and identity output.

    `sizes` is (input, hidden..., output). Weights are He-scaled unless a
    uniform `scale` is given, in which case params are uniform(-scale, scale).
    """
    rng = np.random.default_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        act = activation if i < len(sizes) - 2 else "id"
        if scale is None:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
            b = np.zeros(fan_out)
        else:
            w = rng.uniform(-scale, scale, size=(fan_out, fan_in))
            b = rng.uniform(-scale, scale, size=fan_out)
        layers.append(Layer(w, b, act))
    return DenseNet(layers)


def net_forward_batch(net: DenseNet, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != net.input_dim:
        raise ValueError(f"input dim {X.shape[1]} != net input {net.input_dim}")
    a = X
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return a[:, 0] if a.shape[1] == 1 else a


def net_forward(net: DenseNet, x) -> float:
    return float(net_forward_batch(net, np.asarray(x, dtype=float).reshape(1, -1))[0])


def net_workspace(net: DenseNet, n: int) -> list:
    """Per-layer (activation, delta) buffers for `net_weighted_gradient` on
    batches of `n` rows. A caller that takes many gradients of nets of one
    shape allocates this once and passes it to every call."""
    return [(np.empty((n, l.weights.shape[0])), np.empty((n, l.weights.shape[0])))
            for l in net.layers]


def net_weighted_gradient(net: DenseNet, X: np.ndarray, weights, workspace=None):
    """Gradient of sum_j weights[j] * net(X[j]) w.r.t. all parameters.

    Returns a list of (dW, db) with the same shapes as the layers. This is
    the single backprop core; batch-mean objectives and regression losses
    are expressed through the weight vector. `weights` is an (n,) array or
    a function of the net's outputs on X (as `net_forward_batch` returns
    them) that gives one, so a loss gradient takes a single forward pass.
    `workspace` (from `net_workspace`) holds the pass's activations and
    deltas; without it they are allocated per call.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if workspace is None:
        workspace = net_workspace(net, n)
    elif [(act.shape, delta.shape) for act, delta in workspace] != \
            [((n, l.weights.shape[0]),) * 2 for l in net.layers]:
        raise ValueError("workspace does not match the net and batch")
    activations = [X]
    a = X
    for layer, (act, _) in zip(net.layers, workspace):
        # z = a @ W.T + b, then relu, all in the layer's buffer; relu(z) > 0
        # exactly where z > 0, so backprop masks on the activation
        np.matmul(a, layer.weights.T, out=act)
        act += layer.biases
        if layer.activation == "relu":
            np.maximum(act, 0.0, out=act)
        a = act
        activations.append(a)
    if callable(weights):
        weights = weights(a[:, 0] if a.shape[1] == 1 else a)
    weights = np.asarray(weights, dtype=float)

    grads = [None] * len(net.layers)
    delta = workspace[-1][1]
    delta[...] = weights[:, None]
    if net.layers[-1].activation == "relu":
        np.multiply(delta, activations[-1] > 0, out=delta)
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        dW = delta.T @ activations[li]
        db = delta.sum(axis=0)
        grads[li] = (dW, db)
        if li > 0:
            delta = np.matmul(delta, layer.weights, out=workspace[li - 1][1])
            if net.layers[li - 1].activation == "relu":
                np.multiply(delta, activations[li] > 0, out=delta)
    return grads


def net_gradient(net: DenseNet, batch_pos: np.ndarray, batch_neg: np.ndarray):
    """Gradient of mean(net(batch_pos)) - mean(net(batch_neg))."""
    pos = np.atleast_2d(np.asarray(batch_pos, dtype=float))
    neg = np.atleast_2d(np.asarray(batch_neg, dtype=float))
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ValueError("empty batch")
    X = np.concatenate([pos, neg], axis=0)
    w = np.concatenate(
        [np.full(pos.shape[0], 1.0 / pos.shape[0]), np.full(neg.shape[0], -1.0 / neg.shape[0])]
    )
    return net_weighted_gradient(net, X, w)


def sgd_step(net: DenseNet, grads, lr: float, clip: float | None = None) -> DenseNet:
    """Ascent step theta += lr * grad, then clamp every parameter to
    [-clip, +clip] when clip is set. Biases are clamped too."""
    if lr <= 0:
        raise ValueError("lr must be > 0")
    layers = []
    for layer, (dW, db) in zip(net.layers, grads):
        if not (np.all(np.isfinite(dW)) and np.all(np.isfinite(db))):
            raise NumericError("non-finite gradient")
        w = layer.weights + lr * dW
        b = layer.biases + lr * db
        if clip is not None:
            w = np.clip(w, -clip, clip)
            b = np.clip(b, -clip, clip)
        layers.append(Layer(w, b, layer.activation))
    return DenseNet(layers)


def flatten_params(net: DenseNet) -> np.ndarray:
    return np.concatenate([np.concatenate([l.weights.ravel(), l.biases]) for l in net.layers])


def lipschitz_bound(net: DenseNet) -> float:
    """Upper bound on the net's Lipschitz constant: product of layer
    spectral norms (relu and identity are 1-Lipschitz)."""
    bound = 1.0
    for layer in net.layers:
        bound *= float(np.linalg.norm(layer.weights, ord=2))
    return bound


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------


def regression_slope(xs, ys) -> float | None:
    """Least-squares slope of ys on xs; None when xs has zero variance."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("length mismatch")
    if xs.size < 2:
        raise ValueError("need at least 2 points")
    dx = xs - xs.mean()
    denom = float(dx @ dx)
    if denom == 0.0:
        return None
    return float(dx @ (ys - ys.mean()) / denom)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    k: int
    inertia: float = float("nan")
    inertia_history: list | None = None


def _sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    # (n, k) squared euclidean distances
    return np.maximum(
        (X * X).sum(1)[:, None] - 2.0 * X @ C.T + (C * C).sum(1)[None, :], 0.0
    )


def kmeans_fit(points, k: int, seed: int = 0, max_iters: int = 100) -> KMeansModel:
    """Lloyd iterations with k-means++ seeding.

    Empty clusters are re-seeded to the point farthest from its assigned
    centroid.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError("points must be 2-D")
    n = X.shape[0]
    if k < 1 or n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = _sq_dists(X, centroids[:1]).min(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[j] = X[idx]
        closest = np.minimum(closest, _sq_dists(X, centroids[j : j + 1]).min(axis=1))

    history = []
    assign = None
    for _ in range(max_iters):
        d2 = _sq_dists(X, centroids)
        new_assign = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), new_assign].sum())
        history.append(inertia)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = X[assign == j]
            if len(members) == 0:
                farthest = int(d2[np.arange(n), assign].argmax())
                centroids[j] = X[farthest]
                continue
            centroids[j] = members.mean(axis=0)

    d2 = _sq_dists(X, centroids)
    inertia = float(d2[np.arange(n), d2.argmin(axis=1)].sum())
    history.append(inertia)
    return KMeansModel(centroids=centroids, k=k, inertia=inertia, inertia_history=history)


def kmeans_assign(model: KMeansModel, points) -> np.ndarray:
    """Index of the nearest centroid for each row of an `(n, d)` array;
    lowest index wins ties."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != model.centroids.shape[1]:
        raise ValueError("dimension mismatch")
    return _sq_dists(points, model.centroids).argmin(axis=1)


def chord_distances(ks, values) -> np.ndarray:
    """Perpendicular distance of each (k, value) point to the chord joining
    the first and last points of the curve."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    a = np.array([ks[0], values[0]])
    b = np.array([ks[-1], values[-1]])
    ab = b - a
    denom = np.linalg.norm(ab)
    if denom == 0.0:
        return np.zeros(len(ks))
    pts = np.stack([ks, values], axis=1) - a
    cross = np.abs(pts[:, 0] * ab[1] - pts[:, 1] * ab[0])
    return cross / denom


def elbow_select_k(points, kmin: int = 2, kmax: int = 20, seed: int = 0) -> int:
    """Pick k in [kmin, kmax] maximizing the distance of the within-cluster
    sum-of-squares curve from the straight chord between its endpoints.
    Lowest k wins ties (a perfectly linear curve returns kmin)."""
    points = np.asarray(points, dtype=float)
    if kmin < 1 or kmax < kmin:
        raise ValueError("need kmin >= 1 and kmax >= kmin")
    if points.shape[0] < kmax:
        raise ValueError(f"need at least kmax={kmax} points, got {points.shape[0]}")
    if kmin == kmax:
        return kmin
    ks = list(range(kmin, kmax + 1))
    wcss = [kmeans_fit(points, k, seed=seed).inertia for k in ks]
    dists = chord_distances(ks, wcss)
    return ks[int(np.argmax(dists))]


# ---------------------------------------------------------------------------
# Entropy / softmax
# ---------------------------------------------------------------------------


def shannon_entropy(p) -> float:
    """Natural-log entropy with the 0*log(0) := 0 convention."""
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ValueError("empty probability vector")
    if np.any(p < -1e-12):
        raise ValueError("negative probability mass")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def stable_softmax(logits) -> np.ndarray:
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


__all__ = [
    "Layer",
    "DenseNet",
    "init_net",
    "net_forward",
    "net_forward_batch",
    "net_gradient",
    "net_weighted_gradient",
    "net_workspace",
    "sgd_step",
    "flatten_params",
    "lipschitz_bound",
    "regression_slope",
    "KMeansModel",
    "kmeans_fit",
    "kmeans_assign",
    "chord_distances",
    "elbow_select_k",
    "shannon_entropy",
    "stable_softmax",
]
