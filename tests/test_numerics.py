import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leon.core import NumericError
from leon.numerics import (
    DenseNet,
    Layer,
    chord_distances,
    elbow_select_k,
    flatten_params,
    init_net,
    kmeans_assign,
    kmeans_fit,
    net_forward,
    net_forward_batch,
    net_gradient,
    net_weighted_gradient,
    net_workspace,
    regression_slope,
    sgd_step,
    shannon_entropy,
)
from leon.verify import check_backprop_fd


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_net_outputs_zero():
    net = DenseNet([Layer(np.zeros((4, 2)), np.zeros(4), "relu"),
                    Layer(np.zeros((1, 4)), np.zeros(1), "id")])
    for x in ([0.0, 0.0], [1.0, -3.0], [5.0, 5.0]):
        assert net_forward(net, x) == 0.0


def test_affine_layer_by_hand():
    net = DenseNet([Layer(np.array([[2.0]]), np.array([1.0]), "id")])
    assert net_forward(net, [3.0]) == 7.0


def test_rectifier_kills_negative_preactivation():
    # hidden unit sees -x, so a positive input contributes nothing
    net = DenseNet([Layer(np.array([[-1.0]]), np.array([0.0]), "relu"),
                    Layer(np.array([[3.0]]), np.array([0.5]), "id")])
    assert net_forward(net, [2.0]) == 0.5


def test_forward_shape_mismatch():
    net = init_net((3, 4, 1), seed=0)
    with pytest.raises(ValueError):
        net_forward(net, [1.0, 2.0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _gradient(net, pos, neg):
    return net_gradient(net, pos, neg, net_workspace(net, len(pos) + len(neg)))


def test_gradient_identical_batches_is_zero():
    net = init_net((2, 5, 1), seed=1)
    batch = np.array([[0.3, -0.2], [1.0, 0.4]])
    grads, value = _gradient(net, batch, batch)
    assert value == 0.0
    for dw, db in grads:
        assert np.allclose(dw, 0.0) and np.allclose(db, 0.0)


def test_gradient_antisymmetric_under_swap():
    net = init_net((2, 5, 1), seed=2)
    pos = np.array([[0.3, -0.2], [1.0, 0.4]])
    neg = np.array([[0.9, 0.1]])
    g1, v1 = _gradient(net, pos, neg)
    g2, v2 = _gradient(net, neg, pos)
    assert v1 == -v2
    for (dw1, db1), (dw2, db2) in zip(g1, g2):
        assert np.allclose(dw1, -dw2) and np.allclose(db1, -db2)


def test_gradient_value_is_the_mean_difference():
    """The value comes from the gradient pass's own outputs and equals the
    mean difference of two separate forward passes, bit for bit."""
    rng = np.random.default_rng(5)
    net = init_net((3, 8, 8, 1), seed=3, scale=0.5)
    pos, neg = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
    _, value = _gradient(net, pos, neg)
    assert isinstance(value, float)
    assert value == float(net_forward_batch(net, pos).mean() - net_forward_batch(net, neg).mean())


def test_gradient_empty_batch():
    net = init_net((2, 3, 1), seed=0)
    with pytest.raises(ValueError):
        net_gradient(net, np.zeros((0, 2)), np.ones((1, 2)), net_workspace(net, 1))


def test_callable_weights_match_array_weights():
    """Weights read off the pass's own outputs give the gradients of the
    same weights computed from a separate forward pass and passed as a
    constant, bit for bit; one workspace serves nets of one shape in turn."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(24, 3))
    y = rng.normal(size=24)
    relu_out = init_net((3, 6, 5, 1), seed=2)
    relu_out.layers[-1].activation = "relu"
    nets = [init_net((3, 6, 5, 1), seed=0), init_net((3, 6, 5, 1), seed=1), relu_out]
    loss_weights = lambda out: -2.0 * (out - y) / len(y)  # noqa: E731
    workspace = net_workspace(nets[0], len(X))
    for net in nets:
        fixed = loss_weights(net_forward_batch(net, X))
        want = net_weighted_gradient(net, X, lambda out: fixed, net_workspace(net, len(X)))
        got = net_weighted_gradient(net, X, loss_weights, workspace)
        for (gw, gb), (ww, wb) in zip(got, want):
            assert np.array_equal(gw, ww) and np.array_equal(gb, wb)


def test_workspace_shape_mismatch():
    net = init_net((3, 4, 1), seed=0)
    X = np.zeros((5, 3))
    for bad in (net_workspace(net, 6), net_workspace(init_net((3, 7, 1), seed=0), 5)):
        with pytest.raises(ValueError):
            net_weighted_gradient(net, X, lambda out: np.ones(5), bad)


def test_gradient_matches_finite_differences():
    result = check_backprop_fd(seed=3, nets=6)
    assert result.passed, result.detail


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------


def test_sgd_clip_exact():
    net = DenseNet([Layer(np.array([[0.009]]), np.array([0.0]), "id")])
    grads = [(np.array([[1.0]]), np.array([0.0]))]
    sgd_step(net, grads, 0.001, 0.01)
    w = net.layers[0].weights[0, 0]
    assert w == pytest.approx(0.01, abs=1e-15) and w <= 0.01  # reaches the clamp boundary


def test_sgd_zero_gradient_no_op():
    net = init_net((2, 3, 1), seed=4, scale=0.005)
    before = flatten_params(net)
    grads = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
    sgd_step(net, grads, 0.5, 0.01)
    assert np.array_equal(flatten_params(net), before)


def test_sgd_steps_in_place_like_a_fresh_net():
    """The in-place step keeps the arithmetic of adding `lr * grad` to a
    copy and clipping it: every parameter is bit-for-bit equal."""
    rng = np.random.default_rng(3)
    net = init_net((3, 5, 1), seed=1, scale=0.01)
    grads = [(rng.normal(0, 1, l.weights.shape), rng.normal(0, 1, l.biases.shape))
             for l in net.layers]
    want = [(np.clip(l.weights + 0.004 * gw, -0.01, 0.01),
             np.clip(l.biases + 0.004 * gb, -0.01, 0.01)) for l, (gw, gb) in zip(net.layers, grads)]
    arrays = [(l.weights, l.biases) for l in net.layers]
    sgd_step(net, grads, 0.004, 0.01)
    for layer, (w, b), (w0, b0) in zip(net.layers, want, arrays):
        assert layer.weights is w0 and layer.biases is b0
        assert np.array_equal(layer.weights, w) and np.array_equal(layer.biases, b)


@given(st.integers(0, 1000), st.floats(0.001, 1.0))
def test_sgd_clip_invariant(seed, lr):
    rng = np.random.default_rng(seed)
    net = init_net((2, 4, 1), seed=seed)
    grads = [(rng.normal(0, 10, l.weights.shape), rng.normal(0, 10, l.biases.shape))
             for l in net.layers]
    sgd_step(net, grads, lr, 0.01)
    assert np.abs(flatten_params(net)).max() <= 0.01


def test_sgd_nonfinite_gradient():
    net = init_net((1, 2, 1), seed=0)
    grads = [(np.full_like(l.weights, np.nan), np.zeros_like(l.biases)) for l in net.layers]
    with pytest.raises(NumericError):
        sgd_step(net, grads, 0.1, 0.01)


def test_sgd_nonfinite_last_layer_changes_nothing():
    """A non-finite gradient in the last layer is caught before the first
    layer is stepped: no parameter of any layer changes."""
    net = init_net((2, 4, 3, 1), seed=2, scale=0.01)
    before = flatten_params(net)
    grads = [(np.ones_like(l.weights), np.ones_like(l.biases)) for l in net.layers]
    grads[-1] = (grads[-1][0], np.array([np.inf]))
    with pytest.raises(NumericError):
        sgd_step(net, grads, 0.001, 0.01)
    assert np.array_equal(flatten_params(net), before)


# ---------------------------------------------------------------------------
# regression slope
# ---------------------------------------------------------------------------


def test_slope_exact():
    assert regression_slope([0, 1, 2], [0, 2, 4]) == pytest.approx(2.0)


def test_slope_constant_ys():
    assert regression_slope([0, 1, 2], [5, 5, 5]) == 0.0


def test_slope_constant_xs_is_undefined():
    assert regression_slope([3, 3, 3], [1, 2, 3]) is None


def test_slope_length_mismatch():
    with pytest.raises(ValueError):
        regression_slope([1, 2], [1, 2, 3])


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_slope_shift_invariance(cx, cy):
    xs = np.array([0.0, 1.3, 2.9, 4.2])
    ys = np.array([1.0, -0.5, 2.5, 0.7])
    base = regression_slope(xs, ys)
    assert regression_slope(xs + cx, ys + cy) == pytest.approx(base, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _blobs(rng, centers, n_per=20, scale=0.05):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(rng.normal(c, scale, size=(n_per, len(c))))
        labels += [i] * n_per
    return np.concatenate(pts), np.array(labels)


def test_kmeans_k1_is_mean(rng):
    pts = rng.normal(0, 1, size=(10, 3))
    model = kmeans_fit(pts, 1, seed=0)
    assert np.allclose(model.centroids[0], pts.mean(axis=0))


def test_kmeans_separated_blobs(rng):
    pts, labels = _blobs(rng, [(0, 0, 5), (5, 0, 0), (0, 5, 0)])
    model = kmeans_fit(pts, 3, seed=1)
    assigned = kmeans_assign(model, pts)
    # each true blob maps to exactly one distinct cluster
    blob_clusters = [set(assigned[labels == i]) for i in range(3)]
    assert all(len(s) == 1 for s in blob_clusters)
    assert len(set.union(*blob_clusters)) == 3


def test_kmeans_duplicates_zero_inertia():
    pts = np.tile([1.0, 2.0], (8, 1))
    model = kmeans_fit(pts, 1, seed=0)
    assert model.inertia == 0.0


def test_kmeans_too_few_points():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((2, 2)), 3, seed=0)


def test_kmeans_inertia_non_increasing(rng):
    for trial in range(5):
        pts = rng.normal(0, 1, size=(40, 4))
        model = kmeans_fit(pts, 4, seed=trial)
        hist = np.array(model.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9)


def test_assign_exact_centroid_match():
    model = kmeans_fit(np.array([[0.0, 0], [10, 0], [0, 10]]), 3, seed=0)
    assert kmeans_assign(model, model.centroids).tolist() == [0, 1, 2]


def test_assign_tie_breaks_low_index():
    model = kmeans_fit(np.array([[-1.0], [1.0]]), 2, seed=0)
    # centroids at -1 and 1 in some order; 0 is equidistant
    assert kmeans_assign(model, np.array([[0.0]])).tolist() == [0]


def test_assign_matches_linear_scan(rng):
    pts = rng.normal(0, 1, size=(30, 3))
    model = kmeans_fit(pts, 4, seed=2)
    P = rng.normal(0, 1, size=(20, 3))
    expect = [int(np.argmin(((model.centroids - p) ** 2).sum(axis=1))) for p in P]
    assert kmeans_assign(model, P).tolist() == expect
    with pytest.raises(ValueError):
        kmeans_assign(model, P[0])  # one design is a (1, d) batch, not a vector


# ---------------------------------------------------------------------------
# elbow
# ---------------------------------------------------------------------------


def test_elbow_degenerate_range(rng):
    pts = rng.normal(0, 1, size=(30, 2))
    assert elbow_select_k(pts, kmin=4, kmax=4, seed=0) == 4


def test_elbow_finds_three_blobs(rng):
    pts, _ = _blobs(rng, [(0, 0), (8, 0), (0, 8)], n_per=30)
    assert elbow_select_k(pts, kmin=2, kmax=8, seed=0) == 3


def test_chord_distance_linear_curve_prefers_first():
    ks = np.arange(2, 9)
    wcss = 100.0 - 7.5 * ks  # perfectly linear: every distance is 0
    dists = chord_distances(ks, wcss)
    assert np.allclose(dists, 0.0)
    assert int(np.argmax(dists)) == 0  # lowest-k tie-break


def test_elbow_insufficient_points():
    with pytest.raises(ValueError):
        elbow_select_k(np.zeros((5, 2)), kmin=2, kmax=10, seed=0)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_point_mass():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform():
    assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4))


def test_entropy_direct_summation_oracle():
    p = [0.5, 0.25, 0.25]
    expected = -sum(pi * math.log(pi) for pi in p)
    assert shannon_entropy(p) == pytest.approx(expected, abs=1e-12)
    assert shannon_entropy(p) == pytest.approx(1.039721, abs=1e-6)


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy([0.7, 0.4])
    with pytest.raises(ValueError):
        shannon_entropy([-0.2, 1.2])


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
def test_entropy_bounds(weights):
    p = np.array(weights) / sum(weights)
    h = shannon_entropy(p)
    assert -1e-12 <= h <= math.log(len(p)) + 1e-12
    uniform = np.allclose(p, 1.0 / len(p))
    if h >= math.log(len(p)) - 1e-12:
        assert uniform
    if uniform:
        assert h == pytest.approx(math.log(len(p)))
