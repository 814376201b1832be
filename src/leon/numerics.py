"""Minimal numeric kernel.

Dense feed-forward nets of ReLU hidden layers and one linear output unit,
with one hand-rolled backprop pass (no autodiff dependency): the gradient
of a weighted sum of a net's outputs, `net_weighted_gradient`, whose
+-1/n case is `net_gradient`. Also simple-regression slope, seeded
euclidean k-means with the elbow pick of k, and entropy/softmax helpers.
Everything here is pure given explicit inputs and seeds.

A net's dtype is its parameter vector's, float64 or float32: its forward
and gradient passes cast their inputs to it and compute in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NumericError


# ---------------------------------------------------------------------------
# Dense networks
# ---------------------------------------------------------------------------

_NET_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _float_array(a) -> np.ndarray:
    """`a` itself when it is a float32 or float64 array, else as float64."""
    a = np.asarray(a)
    return a if a.dtype in _NET_DTYPES else a.astype(float)


@dataclass(eq=False)
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)

    def __post_init__(self):
        self.weights = _float_array(self.weights)
        self.biases = _float_array(self.biases)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("layer shape mismatch")


def layer_views(net: "DenseNet", vec: np.ndarray) -> list:
    """Per-layer (weights, biases) views of a vector laid out like
    `net.params`, such as a gradient: each layer's (out, in) weights in row
    order, then its out biases, layer after layer."""
    return _views(net.shapes, vec)


def _views(shapes, vec: np.ndarray) -> list:
    """`layer_views` for the layers of the given (out, in) shapes, so that
    `net.shapes[:-1]` views a vector of the hidden parameters alone."""
    views, i = [], 0
    for out, fan_in in shapes:
        j = i + out * fan_in
        views.append((vec[i:j].reshape(out, fan_in), vec[j:j + out]))
        i = j + out
    return views


@dataclass(eq=False)
class DenseNet:
    """Feed-forward net (ReLU hidden layers, one linear output unit) whose
    parameters are one contiguous float64 or float32 vector, `params`, in
    `layer_views` order; the net's dtype is the vector's. Each layer's
    `weights` and `biases` are views of it: writing them writes `params` and
    the reverse, so a step over all parameters is one operation on
    `params`. Construction copies the given layers' arrays into a new
    vector. `params` is the net: steps, copies and pickles all read
    it, so a layer's arrays are written in place, never rebound."""

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False)
    shapes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError("consecutive layer shapes incompatible")
        if self.layers[-1].weights.shape[0] != 1:
            raise ValueError("the output layer must have one unit")
        self.shapes = tuple(l.weights.shape for l in self.layers)
        self._bind(np.concatenate([np.concatenate([l.weights.ravel(), l.biases])
                                   for l in self.layers]))

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.layers = [Layer(w, b) for w, b in layer_views(self, params)]

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    def copy(self) -> "DenseNet":
        return _net_on(self.params.copy(), self.shapes)

    def astype(self, dtype) -> "DenseNet":
        """A copy whose vector has the given dtype."""
        return _net_on(self.params.astype(dtype), self.shapes)

    def __reduce__(self):
        # pickled as its vector, like `copy`; the layers are rebuilt as views
        return _net_on, (self.params, self.shapes)


def _net_on(params: np.ndarray, shapes: tuple) -> DenseNet:
    """A net whose layers are views of `params` (owned by the new net)."""
    net = object.__new__(DenseNet)
    net.shapes = shapes
    net._bind(params)
    return net


def init_net(sizes, seed, scale=None) -> DenseNet:
    """Net of ReLU hidden layers and one linear output unit.

    `sizes` is (input, hidden..., 1). Weights are He-scaled unless a
    uniform `scale` is given, in which case params are uniform(-scale, scale).
    """
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        if scale is None:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
            b = np.zeros(fan_out)
        else:
            w = rng.uniform(-scale, scale, size=(fan_out, fan_in))
            b = rng.uniform(-scale, scale, size=fan_out)
        layers.append(Layer(w, b))
    return DenseNet(layers)


def net_hidden(net: DenseNet, X: np.ndarray) -> np.ndarray:
    """The last hidden layer's rectified activations on the rows of X (X
    itself for a net without hidden layers): the output unit's inputs."""
    a = X
    for layer in net.layers[:-1]:
        a = np.maximum(a @ layer.weights.T + layer.biases, 0.0)
    return a


def _net_rows(net: DenseNet, X) -> np.ndarray:
    """X as 2-D rows of the net's dtype, checked to be as wide as its input.
    Checked up front: a width-1 X would broadcast through the first layer
    (see `_product`), and a pass whose first layer is dead skips the one
    product that would refuse it."""
    X = np.atleast_2d(np.asarray(X, dtype=net.params.dtype))
    if X.shape[1] != net.input_dim:
        raise ValueError(f"input dim {X.shape[1]} != net input {net.input_dim}")
    return X


def net_forward_batch(net: DenseNet, X: np.ndarray) -> np.ndarray:
    X = _net_rows(net, X)
    out = net.layers[-1]
    return (net_hidden(net, X) @ out.weights.T + out.biases)[:, 0]


class NetWorkspace:
    """Buffers for gradient passes of nets shaped like `net` on batches of
    exactly `n` rows: each layer's activations (which backprop overwrites
    with the layer's deltas), a rectifier mask per hidden layer (views of
    one buffer, as each mask is used only where it is made) and the flat
    gradient (in `params` layout, with per-layer views `grads`), all in the
    net's dtype. A training loop allocates one and passes it to every pass,
    which overwrites them all, the gradient of a layer below a wholly dead
    one (see `_backward`) by a zero fill.

    Each pass also sets `last_hidden_dead`: True when the last hidden layer
    has no unit positive on any row, so that the output unit's inputs are
    all 0 and every hidden gradient is 0; False when some unit of it is
    live, and for a net without hidden layers."""

    def __init__(self, net: DenseNet, n: int):
        widths = [out for out, _ in net.shapes]
        self.shapes = net.shapes
        self.rows = n
        self.dtype = dtype = net.params.dtype
        self.acts = [np.empty((n, w), dtype=dtype) for w in widths]
        mask = np.empty(n * max(widths[:-1], default=0), dtype=bool)
        self.masks = [mask[:n * w].reshape(n, w) for w in widths[:-1]]
        self.grad = np.empty_like(net.params)
        self.grads = layer_views(net, self.grad)
        self.last_hidden_dead = False


def _check_workspace(net: DenseNet, workspace: NetWorkspace, n: int) -> None:
    # a dtype mismatch would not fail: `out=` casts, so the pass would run
    # in the workspace's precision instead of the net's
    if (workspace.shapes != net.shapes or workspace.rows != n
            or workspace.dtype != net.params.dtype):
        raise ValueError("workspace does not match the net and batch")


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into `out`. With inner dimension 1 (an input layer of width 1,
    or the delta through the output unit) each entry is one rounded
    multiply, so a broadcast gives matmul's bits without a BLAS call."""
    if a.shape[1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


def _forward(net: DenseNet, X: np.ndarray, workspace: NetWorkspace) -> np.ndarray:
    """The net's outputs on X, with every layer's activations left in the
    workspace."""
    a = X
    last = len(net.layers) - 1
    for li, (layer, act) in enumerate(zip(net.layers, workspace.acts)):
        # z = a @ W.T + b, then relu on a hidden layer, all in the layer's buffer
        _product(a, layer.weights.T, act)
        act += layer.biases
        if li < last:
            np.maximum(act, 0.0, out=act)
        a = act
    return a[:, 0]


def _backward(net: DenseNet, X: np.ndarray, weights: np.ndarray,
              workspace: NetWorkspace) -> np.ndarray:
    """Backprop of sum_j weights[j] * net(X[j]) after `_forward` on X;
    returns the workspace's flat gradient. Each layer's delta overwrites
    its activations once they are used up.

    Only live units carry delta down: a hidden unit that is positive on no
    row has an all-zero delta column, so the next delta is `delta[:, live]
    @ W[live]`, the dense product less its exact-zero terms: bit for bit
    the dense result wherever BLAS adds the remaining terms in the same
    order, as OpenBLAS 0.3.31 does (the tests check it). Below a layer
    with no live unit every delta, and so every gradient, is zero: those
    layers are zero-filled and their products skipped. Each layer's own
    `dW` product stays dense, as OpenBLAS's small-matrix kernel would
    round `delta[:, live].T @ a` differently. Records on the workspace
    whether the first layer found wholly dead is the last hidden one."""
    layers, acts, masks, grads = net.layers, workspace.acts, workspace.masks, workspace.grads
    workspace.last_hidden_dead = False
    delta = acts[-1]
    delta[...] = weights[:, None]  # the output unit is linear
    live = slice(None)  # the units of the layer that `delta` belongs to
    for li in range(len(layers) - 1, -1, -1):
        a = acts[li - 1] if li > 0 else X
        dW, db = grads[li]
        np.matmul(delta.T, a, out=dW)
        np.add.reduce(delta, axis=0, out=db)
        if li == 0:
            break
        # a is a hidden layer's relu(z), > 0 exactly where z > 0
        mask = np.greater(a, 0.0, out=masks[li - 1])
        below = mask.any(axis=0)
        if not below.any():
            workspace.last_hidden_dead = li == len(layers) - 1
            for dW, db in grads[:li]:
                dW.fill(0.0)
                db.fill(0.0)
            break
        delta = _product(delta[:, live], layers[li].weights[live], a)
        np.multiply(delta, mask, out=delta)
        live = slice(None) if below.all() else below
    return workspace.grad


def net_weighted_gradient(net: DenseNet, X: np.ndarray, weights,
                          workspace: NetWorkspace) -> np.ndarray:
    """Gradient of sum_j w[j] * net(X[j]) w.r.t. all parameters, in one
    forward-plus-backprop pass.

    `weights` is a function of the net's outputs on X (as `net_forward_batch`
    returns them) that gives the (n,) vector w (any other shape raises
    `ValueError`), so a loss, or an estimate read off the same outputs,
    needs no second forward pass. `workspace`
    (a `NetWorkspace` for the net and n rows) holds the pass's buffers.
    X and w are cast to the net's dtype. Returns the workspace's flat
    gradient, in `net.params` layout, which the next pass overwrites.
    """
    X = _net_rows(net, X)
    if len(X) == 0:
        raise ValueError("empty batch")
    _check_workspace(net, workspace, len(X))
    w = np.asarray(weights(_forward(net, X, workspace)), dtype=net.params.dtype)
    if w.shape != (len(X),):  # a (1,) vector would broadcast over every row
        raise ValueError(f"weights of shape {w.shape} for {len(X)} rows")
    return _backward(net, X, w, workspace)


def net_gradient(net: DenseNet, batch_pos: np.ndarray, batch_neg: np.ndarray,
                 workspace: NetWorkspace):
    """Gradient of mean(net(batch_pos)) - mean(net(batch_neg)) and that
    difference itself: returns (grad, value), both from one
    `net_weighted_gradient` pass over the stacked rows with weights +1/n
    on each `batch_pos` row and -1/n on each `batch_neg` row, the workspace
    holding `len(batch_pos) + len(batch_neg)` rows.
    """
    pos = np.atleast_2d(np.asarray(batch_pos, dtype=float))
    neg = np.atleast_2d(np.asarray(batch_neg, dtype=float))
    n_pos, n_neg = len(pos), len(neg)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("empty batch")
    weights = np.concatenate([np.full(n_pos, 1.0 / n_pos), np.full(n_neg, -1.0 / n_neg)])
    value = 0.0

    def read_value(out):
        nonlocal value  # sum / count is how `mean` computes, bit for bit
        value = float(np.add.reduce(out[:n_pos]) / n_pos - np.add.reduce(out[n_pos:]) / n_neg)
        return weights

    grad = net_weighted_gradient(net, np.concatenate([pos, neg]), read_value, workspace)
    return grad, value


_BOX_ROWS = 128  # rows per block of `last_hidden_dead_on_box`, to bound its buffers


def _gamma(fan_in: int) -> float:
    """(k + 1) u / (1 - (k + 1) u) at u = 2**-23, for fan-in k: the classic
    bound on the relative error of a float32 dot product of k terms plus a
    bias, in any summation order, taken at twice float32's unit roundoff."""
    t = (fan_in + 1) * 2.0 ** -23
    return t / (1.0 - t)


def last_hidden_dead_on_box(net: DenseNet, X: np.ndarray, lo: np.ndarray,
                            hi: np.ndarray) -> bool:
    """True only if, for every net shaped like `net` whose hidden weights
    and biases lie between the flat vectors `lo` and `hi` (the hidden part
    of `params`, in `layer_views` order), a float32 forward pass over the
    rows of X finds no unit of the last hidden layer positive on any row.
    False when an upper bound on some unit's pre-activation is not < 0,
    which may only mean the bounds are too loose.

    An interval forward pass, in blocks of at most `_BOX_ROWS` rows. The first
    layer runs in float64 on centre and radius of its box, X being exact.
    A later layer's inputs are relus, so >= 0: its upper bound is
    `a_hi @ max(W_hi, 0).T + a_lo @ min(W_hi, 0).T + b_hi`, and its lower
    bound the same with W_lo and the inputs swapped. Those products run
    in float32 on operands of one sign each, so each is exact to a relative
    gamma (`_gamma`) and is inflated by it. Each layer's bounds then widen
    by gamma times `|a| @ |W|.T + |b|`, the float32 forward pass's own
    rounding of that layer. gamma is about twice the float32 bound, and
    the slack, (k + 1) * 2**-24 of the same magnitudes, also covers the
    float64 roundings of the bounds (of order k * 2**-53) and the float32
    casts of the bounds on a layer's inputs (2**-24 per term)."""
    box = list(zip(_views(net.shapes[:-1], lo), _views(net.shapes[:-1], hi)))
    for start in range(0, len(X), _BOX_ROWS):
        x = X[start:start + _BOX_ROWS].astype(float)
        for li, ((w_lo, b_lo), (w_hi, b_hi)) in enumerate(box):
            g = _gamma(w_lo.shape[1])
            if li == 0:
                w_c, b_c = (w_lo.astype(float) + w_hi) / 2, (b_lo.astype(float) + b_hi) / 2
                w_r, b_r = (w_hi.astype(float) - w_lo) / 2, (b_hi.astype(float) - b_lo) / 2
                centre = x @ w_c.T + b_c
                spread = (np.abs(x) @ w_r.T + b_r
                          + g * (np.abs(x) @ (np.abs(w_c) + w_r).T + np.abs(b_c) + b_r))
                upper, lower = centre + spread, centre - spread
            else:
                a_lo32, a_hi32 = a_lo.astype(np.float32), a_hi.astype(np.float32)
                mag = (a_hi32 @ np.maximum(np.abs(w_lo), np.abs(w_hi)).T).astype(float)
                margin = g * (mag * (1.0 + g) + np.maximum(np.abs(b_lo), np.abs(b_hi)))
                upper = ((a_hi32 @ np.maximum(w_hi, 0.0).T).astype(float) * (1.0 + g)
                         + (a_lo32 @ np.minimum(w_hi, 0.0).T).astype(float) * (1.0 - g)
                         + b_hi + margin)
                if li == len(box) - 1:
                    break
                lower = ((a_lo32 @ np.maximum(w_lo, 0.0).T).astype(float) * (1.0 - g)
                         + (a_hi32 @ np.minimum(w_lo, 0.0).T).astype(float) * (1.0 + g)
                         + b_lo - margin)
            a_lo, a_hi = np.maximum(lower, 0.0), np.maximum(upper, 0.0)
        if not (upper < 0.0).all():  # also refuses a NaN bound
            return False
    return True


def sgd_step(net: DenseNet, grad: np.ndarray, lr: float, clip: float) -> None:
    """Ascent step params += lr * grad in place, then clamp every parameter,
    biases too, to [-clip, +clip]. `grad` is flat, in `net.params` layout,
    and is checked to be finite before any parameter changes."""
    if lr <= 0:
        raise ValueError("lr must be > 0")
    if grad.shape != net.params.shape:
        raise ValueError("gradient does not match the net")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    params = net.params
    params += lr * grad
    np.clip(params, -clip, clip, out=params)


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


def _sq_dists(X: np.ndarray, C: np.ndarray, x2: np.ndarray) -> np.ndarray:
    # (n, k) squared euclidean distances; x2 is (X * X).sum(1)
    return np.maximum(x2[:, None] - 2.0 * X @ C.T + (C * C).sum(1)[None, :], 0.0)


def _kmeanspp(X: np.ndarray, x2: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: `(k, d)` initial centroids. The seeding for k is
    the first k rows of the seeding for any larger k under the same seed."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = _sq_dists(X, centroids[:1], x2).min(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[j] = X[idx]
        closest = np.minimum(closest, _sq_dists(X, centroids[j : j + 1], x2).min(axis=1))
    return centroids


def _lloyd(X: np.ndarray, x2: np.ndarray, centroids: np.ndarray) -> KMeansModel:
    """At most 100 Lloyd iterations from `centroids`, updated in place,
    stopping once an iteration leaves every assignment as it was. Each
    centroid is the `np.add.reduce` of its members' rows, in row order,
    over their count: the arithmetic of `members.mean(axis=0)`."""
    n, k = X.shape[0], centroids.shape[0]
    rows = np.arange(n)
    history = []
    assign = None
    for _ in range(100):
        d2 = _sq_dists(X, centroids, x2)
        new_assign = d2.argmin(axis=1)
        inertia = float(d2[rows, new_assign].sum())
        history.append(inertia)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        members = X[np.argsort(assign, kind="stable")]  # each class's rows, in row order
        counts = np.bincount(assign, minlength=k)
        stops = np.cumsum(counts)
        for j in range(k):
            if counts[j] == 0:
                farthest = int(d2[rows, assign].argmax())
                centroids[j] = X[farthest]
                continue
            centroids[j] = np.add.reduce(members[stops[j] - counts[j]:stops[j]], axis=0) / counts[j]

    d2 = _sq_dists(X, centroids, x2)
    inertia = float(d2[rows, d2.argmin(axis=1)].sum())
    history.append(inertia)
    return KMeansModel(centroids=centroids, k=k, inertia=inertia, inertia_history=history)


def kmeans_fit(points, ks, seed: int) -> list[KMeansModel]:
    """One k-means model per k in `ks`, from one k-means++ seeding at the
    largest k: each k's Lloyd iterations start from the first k seeds,
    which are the seeding for that k alone under the same seed, so each
    model is the one a separate fit at its k would give.

    Empty clusters are re-seeded to the point farthest from its assigned
    centroid.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError("points must be 2-D")
    kmax = max(ks)
    if min(ks) < 1 or X.shape[0] < kmax:
        raise ValueError(f"need at least k={kmax} points, got {X.shape[0]}")
    x2 = (X * X).sum(1)
    init = _kmeanspp(X, x2, kmax, seed)
    return [_lloyd(X, x2, init[:k].copy()) for k in ks]


def kmeans_assign(model: KMeansModel, points) -> np.ndarray:
    """Index of the nearest centroid for each row of an `(n, d)` array;
    lowest index wins ties."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != model.centroids.shape[1]:
        raise ValueError("dimension mismatch")
    return _sq_dists(points, model.centroids, (points * points).sum(1)).argmin(axis=1)


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


def elbow_select_k(ks, wcss) -> int:
    """The k of ascending `ks` whose within-cluster sum of squares `wcss`
    lies farthest from the straight chord between the curve's endpoints.
    Lowest k wins ties (a perfectly linear curve, or a single k, returns
    the first)."""
    return int(ks[int(np.argmax(chord_distances(ks, wcss)))])


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
    "net_hidden",
    "net_forward_batch",
    "net_gradient",
    "net_weighted_gradient",
    "NetWorkspace",
    "layer_views",
    "sgd_step",
    "regression_slope",
    "KMeansModel",
    "kmeans_fit",
    "kmeans_assign",
    "chord_distances",
    "elbow_select_k",
    "shannon_entropy",
    "stable_softmax",
]
