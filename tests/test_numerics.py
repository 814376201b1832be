import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leon import tasks
from leon.core import NumericError
from leon.numerics import (
    DenseNet,
    Layer,
    NetWorkspace,
    chord_distances,
    elbow_select_k,
    init_net,
    kmeans_assign,
    kmeans_fit,
    last_hidden_dead_on_box,
    layer_views,
    net_forward_batch,
    net_gradient,
    net_weighted_gradient,
    regression_slope,
    sgd_step,
    shannon_entropy,
)
from leon.tasks import train_regression_net
from leon.verify import check_backprop_fd


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_net_outputs_zero():
    net = DenseNet([Layer(np.zeros((4, 2)), np.zeros(4)),
                    Layer(np.zeros((1, 4)), np.zeros(1))])
    assert net_forward_batch(net, [[0.0, 0.0], [1.0, -3.0], [5.0, 5.0]]).tolist() == [0.0] * 3


def test_affine_layer_by_hand():
    net = DenseNet([Layer(np.array([[2.0]]), np.array([1.0]))])
    assert net_forward_batch(net, [[3.0]]).tolist() == [7.0]


def test_rectifier_kills_negative_preactivation():
    # hidden unit sees -x, so a positive input contributes nothing
    net = DenseNet([Layer(np.array([[-1.0]]), np.array([0.0])),
                    Layer(np.array([[3.0]]), np.array([0.5]))])
    assert net_forward_batch(net, [[2.0]]).tolist() == [0.5]


def test_output_layer_has_one_unit():
    """The output unit is one linear unit: a wider last layer is refused
    rather than read by its first column."""
    with pytest.raises(ValueError, match="one unit"):
        DenseNet([Layer(np.zeros((4, 2)), np.zeros(4)), Layer(np.zeros((2, 4)), np.zeros(2))])
    with pytest.raises(ValueError, match="one unit"):
        init_net((3, 4, 2), seed=0)


def test_forward_shape_mismatch():
    net = init_net((3, 4, 1), seed=0)
    with pytest.raises(ValueError):
        net_forward_batch(net, [[1.0, 2.0]])


# ---------------------------------------------------------------------------
# flat parameters
# ---------------------------------------------------------------------------


def _assert_owns_its_views(net):
    for (w, b), layer in zip(layer_views(net, net.params), net.layers):
        for view, arr in ((w, layer.weights), (b, layer.biases)):
            assert arr.base is net.params and arr.shape == view.shape
            assert arr.__array_interface__["data"] == view.__array_interface__["data"]


def test_layers_are_views_of_the_flat_vector():
    """Each layer's weights (row order) then biases sit in `params`, layer
    after layer; writing either side writes the other."""
    net = init_net((3, 5, 1), seed=0, scale=0.5)
    _assert_owns_its_views(net)
    want = np.concatenate([np.concatenate([l.weights.ravel(), l.biases]) for l in net.layers])
    assert np.array_equal(net.params, want) and net.params.size == 3 * 5 + 5 + 5 + 1
    net.layers[1].biases[0] = 7.0
    assert net.params[-1] == 7.0
    net.params[0] = -3.0
    assert net.layers[0].weights[0, 0] == -3.0


@pytest.mark.parametrize("how", ["copy", "pickle"])
def test_copies_own_their_vector(how):
    """A copy, and a net sent through pickle as to a `jobs > 1` worker,
    holds its own vector with its layers' arrays views of it again;
    stepping it leaves the original unchanged."""
    net = init_net((2, 6, 4, 1), seed=1, scale=0.01)
    before = net.params.copy()
    twin = net.copy() if how == "copy" else pickle.loads(pickle.dumps(net))
    _assert_owns_its_views(twin)
    assert not np.shares_memory(twin.params, net.params)
    assert np.array_equal(twin.params, net.params)
    sgd_step(twin, np.ones_like(twin.params), 0.001, 0.01)
    assert np.array_equal(net.params, before)
    assert not np.array_equal(twin.params, before)


def test_copy_and_pickle_both_carry_the_vector():
    """`params` is the net: a copy, a pickle round-trip and a deep copy all
    carry it, even past a layer array rebound away from it."""
    net = init_net((2, 3, 1), seed=0, scale=0.5)
    net.layers[0].weights = np.zeros((3, 2))  # no longer a view of params
    for twin in (net.copy(), pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        _assert_owns_its_views(twin)
        assert np.array_equal(twin.params, net.params)
        assert np.array_equal(twin.layers[0].weights, layer_views(net, net.params)[0][0])


def test_float32_nets_keep_their_dtype():
    """A layer keeps float32 and float64 arrays as they are and makes
    anything else float64; a float32 net's layers are views of its float32
    vector, and `astype`, `copy` and pickling give nets of their own."""
    w32, b32 = np.ones((3, 2), dtype=np.float32), np.zeros(3, dtype=np.float32)
    layer = Layer(w32, b32)
    assert layer.weights is w32 and layer.biases is b32
    assert Layer([[1, 2]], [0]).weights.dtype == np.float64
    assert Layer(np.ones((1, 2), dtype=np.float16), np.zeros(1)).weights.dtype == np.float64
    net = init_net((2, 6, 4, 1), seed=1, scale=0.5)
    net32 = net.astype(np.float32)
    assert net.params.dtype == np.float64 and net32.params.dtype == np.float32
    assert not np.shares_memory(net32.params, net.params)
    assert np.array_equal(net32.params, net.params.astype(np.float32))
    for twin in (net32, net32.copy(), pickle.loads(pickle.dumps(net32)), copy.deepcopy(net32),
                 DenseNet([Layer(l.weights, l.biases) for l in net32.layers])):
        _assert_owns_its_views(twin)
        assert all(l.weights.dtype == l.biases.dtype == np.float32 for l in twin.layers)
        assert np.array_equal(twin.params, net32.params)
    back = net32.astype(float)
    assert back.params.dtype == np.float64 and not np.shares_memory(back.params, net32.params)


def test_nets_compare_by_identity():
    net, twin = init_net((2, 3, 1), seed=0), init_net((2, 3, 1), seed=0)
    assert net == net and net != twin
    assert net.layers[0] == net.layers[0] and net.layers[0] != twin.layers[0]


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _gradient(net, pos, neg):
    return net_gradient(net, pos, neg, NetWorkspace(net, len(pos) + len(neg)))


def test_gradient_identical_batches_is_zero():
    net = init_net((2, 5, 1), seed=1)
    batch = np.array([[0.3, -0.2], [1.0, 0.4]])
    grad, value = _gradient(net, batch, batch)
    assert value == 0.0
    assert np.allclose(grad, 0.0)


def test_gradient_antisymmetric_under_swap():
    net = init_net((2, 5, 1), seed=2)
    pos = np.array([[0.3, -0.2], [1.0, 0.4]])
    neg = np.array([[0.9, 0.1]])
    g1, v1 = _gradient(net, pos, neg)
    g2, v2 = _gradient(net, neg, pos)
    assert v1 == -v2
    assert np.allclose(g1, -g2)


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
        net_gradient(net, np.zeros((0, 2)), np.ones((1, 2)), NetWorkspace(net, 1))


def test_workspace_reloads_rows_on_every_pass():
    """One workspace serves any batches of its row count in turn: each pass
    overwrites all its buffers."""
    rng = np.random.default_rng(7)
    net = init_net((2, 5, 1), seed=5, scale=0.5)
    pos, neg = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
    workspace = NetWorkspace(net, 5)
    grad, value = net_gradient(net, pos, neg, workspace)
    fresh, want = _gradient(net, pos, neg)
    assert value == want and np.array_equal(grad, fresh)
    grad, swapped = net_gradient(net, neg, pos, workspace)
    assert swapped == -value and np.array_equal(grad, _gradient(net, neg, pos)[0])


def test_callable_weights_match_array_weights():
    """Weights read off the pass's own outputs give the gradients of the
    same weights computed from a separate forward pass and passed as a
    constant, bit for bit; one workspace serves nets of one shape in turn."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(24, 3))
    y = rng.normal(size=24)
    nets = [init_net((3, 6, 5, 1), seed=0), init_net((3, 6, 5, 1), seed=1)]
    loss_weights = lambda out: -2.0 * (out - y) / len(y)  # noqa: E731
    workspace = NetWorkspace(nets[0], len(X))
    for net in nets:
        fixed = loss_weights(net_forward_batch(net, X))
        want = net_weighted_gradient(net, X, lambda out: fixed, NetWorkspace(net, len(X)))
        got = net_weighted_gradient(net, X, loss_weights, workspace)
        assert np.array_equal(got, want)


def test_workspace_shape_mismatch():
    net = init_net((3, 4, 1), seed=0)
    X = np.zeros((5, 3))
    for bad in (NetWorkspace(net, 6), NetWorkspace(init_net((3, 7, 1), seed=0), 5),
                NetWorkspace(init_net((2, 5, 1), seed=0), 5)):  # 21 parameters, as the net
        with pytest.raises(ValueError):
            net_weighted_gradient(net, X, lambda out: np.ones(5), bad)
        with pytest.raises(ValueError):
            net_gradient(net, X[:3], X[3:], bad)
    # the net takes 3 columns; the first layer's gradient has no room for others
    for rows in (np.zeros((3, 1)), np.zeros((3, 4))):
        with pytest.raises(ValueError):
            net_weighted_gradient(net, rows, lambda out: np.ones(3), NetWorkspace(net, 3))
        with pytest.raises(ValueError):
            net_gradient(net, rows[:2], rows[2:], NetWorkspace(net, 3))


def test_workspace_dtype_mismatch():
    """A workspace of the other dtype is refused, as `out=` would silently
    run the pass in the workspace's precision."""
    X = np.zeros((5, 3))
    net = init_net((3, 4, 1), seed=0)
    for a, b in ((net, net.astype(np.float32)), (net.astype(np.float32), net)):
        bad = NetWorkspace(b, 5)
        with pytest.raises(ValueError):
            net_weighted_gradient(a, X, lambda out: np.ones(5), bad)
        with pytest.raises(ValueError):
            net_gradient(a, X[:3], X[3:], bad)


def test_gradient_matches_finite_differences():
    result = check_backprop_fd(seed=3, nets=6)
    assert result.passed, result.detail


# ---------------------------------------------------------------------------
# the flat kernel against the per-layer one it replaced
# ---------------------------------------------------------------------------


def _reference_weighted_gradient(net, X, weights):
    """Per-layer forward plus backprop into fresh arrays, every layer but
    the last rectified: a list of (dW, db), one per layer."""
    last = len(net.layers) - 1
    activations = [X]
    a = X
    for li, layer in enumerate(net.layers):
        z = a @ layer.weights.T + layer.biases
        a = np.maximum(z, 0.0) if li < last else z
        activations.append(a)
    w = np.asarray(weights(a[:, 0]), dtype=float)
    grads = [None] * len(net.layers)
    delta = np.empty_like(a)
    delta[...] = w[:, None]
    for li in range(last, -1, -1):
        grads[li] = (delta.T @ activations[li], delta.sum(axis=0))
        if li > 0:
            delta = delta @ net.layers[li].weights
            delta = delta * (activations[li] > 0)
    return grads


def _reference_sgd_step(net, grads, lr, clip):
    """Per-layer step, each array checked first, then stepped and clipped."""
    for dW, db in grads:
        if not (np.all(np.isfinite(dW)) and np.all(np.isfinite(db))):
            raise NumericError("non-finite gradient")
    for layer, (dW, db) in zip(net.layers, grads):
        for param, grad in ((layer.weights, dW), (layer.biases, db)):
            param += lr * grad
            np.clip(param, -clip, clip, out=param)


def _flat(grads):
    """Per-layer (dW, db) packed into the flat `params` layout."""
    return np.concatenate([np.concatenate([dW.ravel(), db]) for dW, db in grads])


def _kernel_nets():
    return [init_net((1, 64, 64, 1), seed=5, scale=0.01),
            init_net((16, 64, 64, 1), seed=6, scale=0.01)]


@pytest.mark.parametrize("lr", [1e-3, 0.5])
def test_flat_kernel_matches_per_layer_reference(lr):
    """Critic-shaped passes (128 source plus 32 generated rows, widths 1
    and 16) give the per-layer kernel's gradient and stepped parameters bit
    for bit, over several steps."""
    rng = np.random.default_rng(8)
    for net in _kernel_nets():
        d = net.input_dim
        pos = rng.integers(0, 2, size=(128, d)).astype(float) if d > 1 else rng.random((128, 1))
        neg = rng.random((32, d))
        ref = net.copy()
        n_pos, n_neg = len(pos), len(neg)
        ref_w = np.concatenate([np.full(n_pos, 1.0 / n_pos), np.full(n_neg, -1.0 / n_neg)])
        workspace = NetWorkspace(net, n_pos + n_neg)
        for _ in range(4):
            grad, value = net_gradient(net, pos, neg, workspace)
            want = _reference_weighted_gradient(ref, np.concatenate([pos, neg]), lambda out: ref_w)
            assert value == float(net_forward_batch(ref, pos).mean()
                                  - net_forward_batch(ref, neg).mean())
            assert np.array_equal(grad, _flat(want))
            for (dW, db), (wW, wb) in zip(workspace.grads, want):
                assert np.array_equal(dW, wW) and np.array_equal(db, wb)
            sgd_step(net, grad, lr, 0.01)
            _reference_sgd_step(ref, want, lr, 0.01)
            assert np.array_equal(net.params, _flat((l.weights, l.biases) for l in ref.layers))


def test_float32_kernel_matches_per_layer_reference():
    """On a float32 net the pass runs in float32, X and the weights cast to
    it, and gives the per-layer kernel's float32 gradient bit for bit."""
    rng = np.random.default_rng(10)
    for net in _kernel_nets():
        net32 = net.astype(np.float32)
        X = rng.normal(size=(160, net.input_dim))
        y = rng.normal(size=160)
        loss_weights = lambda out: -2.0 * (out - y) / len(y)  # noqa: E731
        got = net_weighted_gradient(net32, X, loss_weights, NetWorkspace(net32, len(X)))
        want = _reference_weighted_gradient(net32, X.astype(np.float32), loss_weights)
        assert got.dtype == np.float32 and np.array_equal(got, _flat(want))


def _hidden_dead_counts(net, X):
    """Per hidden layer, the number of units positive on no row of X."""
    counts, a = [], X
    for layer in net.layers[:-1]:
        a = np.maximum(a @ layer.weights.T + layer.biases, 0.0)
        counts.append(int((~(a > 0).any(axis=0)).sum()))
    return counts


def _dead_unit_cases():
    """(net, X, its dead-unit count per hidden layer): nets whose chosen
    units have a bias so low that they are dead on every row."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 3))
    some = init_net((3, 8, 6, 1), seed=7, scale=0.5)
    some.layers[0].biases[[1]] = -1e3
    some.layers[1].biases[[0, 2, 5]] = -1e3
    second = init_net((3, 8, 6, 1), seed=7, scale=0.5)
    second.layers[1].biases[:] = -1e3
    first = init_net((3, 8, 6, 1), seed=8, scale=0.5)
    first.layers[0].biases[:] = -1e3
    train = init_net((5, 128, 128, 1), seed=3)
    train.layers[1].biases[9:] = -1e3  # 9 live units, as a collapsed surrogate keeps
    return [(some, X, [1, 3]), (second, X, [0, 6]), (first, X, [8, 2]),
            (init_net((3, 1), seed=9), X, []),
            (train, rng.normal(size=(768, 5)), [0, 119])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", range(5))
def test_kernel_with_dead_units_matches_per_layer_reference(dtype, case):
    """Nets with some or all units of a hidden layer dead on every row, a
    net without hidden layers, and one pass at the surrogate's training
    shape with most second-layer units dead: the pass, which carries delta
    through live units only and zero-fills below a wholly dead layer,
    gives the dense per-layer gradient bit for bit, in a workspace whose
    buffers all start as NaN. The pass flags the workspace exactly when the
    last hidden layer is the wholly dead one."""
    net, X, dead = _dead_unit_cases()[case]
    net, X = net.astype(dtype), X.astype(dtype)
    assert _hidden_dead_counts(net, X) == dead
    y = np.random.default_rng(case).normal(size=len(X))
    loss_weights = lambda out: -2.0 * (out - y) / len(y)  # noqa: E731
    workspace = NetWorkspace(net, len(X))
    for buf in (workspace.grad, *workspace.acts):
        buf.fill(np.nan)  # what a pass does not overwrite shows
    workspace.last_hidden_dead = None
    got = net_weighted_gradient(net, X, loss_weights, workspace)
    want = _reference_weighted_gradient(net, X, loss_weights)
    assert got.dtype == dtype and np.array_equal(got, _flat(want))
    assert workspace.last_hidden_dead is (case == 1)  # the one wholly dead second layer


def test_weights_of_another_shape_are_refused():
    """The pass takes one weight per row: a (1,) vector, which would
    broadcast over every row, and any other shape raise."""
    net = init_net((3, 4, 1), seed=0)
    X = np.random.default_rng(0).normal(size=(5, 3))
    workspace = NetWorkspace(net, 5)
    for bad in (np.array([0.2]), np.full(4, 0.2), np.full((5, 1), 0.2), 0.2):
        with pytest.raises(ValueError, match="weights"):
            net_weighted_gradient(net, X, lambda out: bad, workspace)


def _reference_train(X, y, hidden, seed, iters, lr=0.05, momentum=0.9, steps=None):
    """`train_regression_net`'s float32 descent with per-layer gradients
    and velocities (its ridge solve for the output layer left out), dense
    backprop, no flush of subnormal velocity and no early stop: the net and
    the per-layer velocities after the first `steps` (default all `iters`)
    steps of the `iters`-step schedule. It starts from `tasks.init_net`, so
    a patched init (`_init_with_biases`) starts both loops alike."""
    net = tasks.init_net((X.shape[1], *hidden, 1), seed=seed).astype(np.float32)
    X, y = X.astype(np.float32), y.astype(np.float32)
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
    stage = max(1, iters // 5)
    for it in range(iters if steps is None else steps):
        step = lr * 0.5 ** (it // stage)
        grads = _reference_weighted_gradient(net, X, lambda out: -2.0 * (out - y) / len(y))
        for layer, (gw, gb), (vw, vb) in zip(net.layers, grads, velocity):
            vw *= momentum
            vw += gw
            vb *= momentum
            vb += gb
            layer.weights += step * vw
            layer.biases += step * vb
    return net, velocity


def _hidden_bits(net) -> np.ndarray:
    """The hidden weights and biases as float32 bit patterns, so that -0.0
    and +0.0 differ (a float64 net holds float32 values exactly)."""
    flat = [a.ravel() for layer in net.layers[:-1] for a in (layer.weights, layer.biases)]
    return np.concatenate(flat).astype(np.float32).view(np.uint32)


def _assert_same_hidden_layers(got, want):
    assert np.array_equal(_hidden_bits(got), _hidden_bits(want))


def _training_data():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(96, 5))
    return X, np.sin(X).sum(axis=1)


def test_flat_regression_training_matches_per_layer_reference():
    """Five float32 heavy-ball steps on one flat velocity move every hidden
    weight and bias as the per-layer loop does, bit for bit."""
    X, y = _training_data()
    got = train_regression_net(X, y, hidden=(32, 32), seed=2, iters=5)
    want, _ = _reference_train(X, y, hidden=(32, 32), seed=2, iters=5)
    _assert_same_hidden_layers(got, want)
    _assert_owns_its_views(got)  # the ridge solve writes the output layer in place


def _count_gradient_passes(monkeypatch) -> list:
    """A one-entry list counting `tasks.net_weighted_gradient` calls."""
    calls = [0]

    def gradient(*args):
        calls[0] += 1
        return net_weighted_gradient(*args)

    monkeypatch.setattr(tasks, "net_weighted_gradient", gradient)
    return calls


def _init_with_biases(monkeypatch, biases: dict) -> None:
    """Patch `tasks.init_net` to set every bias of layer i to biases[i]."""
    def init(sizes, seed, scale=None):
        net = init_net(sizes, seed, scale)
        for i, value in biases.items():
            net.layers[i].biases[:] = value
        return net

    monkeypatch.setattr(tasks, "init_net", init)


@pytest.mark.parametrize("lr, wholly", [(0.05, False), (0.2, True)])
def test_long_training_with_dead_units_matches_per_layer_reference(lr, wholly, monkeypatch):
    """A descent long enough that second-layer units die (some at lr 0.05,
    all 32 at 0.2) and their velocity decays to subnormal values: skipping
    dead units in backprop and flushing subnormal velocity to 0 leave every
    hidden weight and bias as the dense, unflushed per-layer loop leaves
    them, bit for bit. Where the last hidden layer dies whole, training
    leaves the descent before the per-layer loop's hidden layers first
    stand still (after pass 196; the flush would zero the hidden velocity
    at pass 887): the momentum left is certified never to revive the layer,
    and the remaining steps are replayed on the hidden layers alone. Where
    some of its units live, it takes every step."""
    X, y = _training_data()
    kwargs = dict(hidden=(32, 32), seed=2, iters=1000, lr=lr)
    want, velocity = _reference_train(X, y, **kwargs)
    dead = _hidden_dead_counts(want, X.astype(np.float32))[1]
    assert dead > 0 and (dead == 32) == wholly
    tiny = np.finfo(np.float32).tiny
    assert any(((v != 0) & (np.abs(v) < tiny)).any() for v in velocity[1])
    calls = _count_gradient_passes(monkeypatch)
    _assert_same_hidden_layers(train_regression_net(X, y, **kwargs), want)
    if not wholly:
        assert calls[0] == kwargs["iters"]
        return
    fixed = 196
    last, before, older = (_hidden_bits(_reference_train(X, y, steps=fixed - k, **kwargs)[0])
                           for k in (0, 1, 2))
    assert np.array_equal(last, before) and not np.array_equal(before, older)
    assert calls[0] < fixed


def test_training_with_a_dead_first_layer_takes_every_step(monkeypatch):
    """A wholly dead first hidden layer under a live second one is no
    fixed point: every hidden gradient but the second layer's biases' is
    0, and those keep moving. Training takes every step and matches the
    per-layer loop bit for bit."""
    _init_with_biases(monkeypatch, {0: -1e3, 1: 0.5})
    X, y = _training_data()
    kwargs = dict(hidden=(32, 32), seed=2, iters=300)
    want, velocity = _reference_train(X, y, **kwargs)
    assert _hidden_dead_counts(want, X.astype(np.float32)) == [32, 0]
    (v0w, v0b), (v1w, v1b) = velocity[:2]
    assert not (v0w.any() or v0b.any() or v1w.any()) and v1b.all()
    calls = _count_gradient_passes(monkeypatch)
    _assert_same_hidden_layers(train_regression_net(X, y, **kwargs), want)
    assert calls[0] == kwargs["iters"]


def test_training_on_a_dead_last_layer_stops_at_once_unless_it_would_diverge(monkeypatch):
    """A last hidden layer dead from the start leaves every hidden gradient
    and velocity entry 0, so training stops after its first step, with the
    per-layer loop's hidden layers. With momentum 1.5 the skipped steps
    would diverge, as the output bias's heavy-ball is unstable: there
    training takes every step and raises, as it would without the stop."""
    _init_with_biases(monkeypatch, {1: -1e3})
    X, y = _training_data()
    kwargs = dict(hidden=(32, 32), seed=2, iters=300)
    want, _ = _reference_train(X, y, **kwargs)
    assert _hidden_dead_counts(want, X.astype(np.float32)) == [0, 32]
    calls = _count_gradient_passes(monkeypatch)
    _assert_same_hidden_layers(train_regression_net(X, y, **kwargs), want)
    assert calls[0] == 1
    calls[0] = 0
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="diverged"):
        train_regression_net(X, y, momentum=1.5, **kwargs)
    assert calls[0] > 1


def test_training_on_a_dead_last_layer_with_negative_momentum_takes_every_step(monkeypatch):
    """A negative momentum flips the velocity's sign every step, so a step
    that moved no hidden bit does not show that later ones move none: under
    momentum -0.5 a last hidden layer dead from the start is no reason to
    stop. Training takes every step and matches the per-layer loop bit for
    bit."""
    _init_with_biases(monkeypatch, {1: -1e3})
    X, y = _training_data()
    kwargs = dict(hidden=(32, 32), seed=2, iters=300, momentum=-0.5)
    want, _ = _reference_train(X, y, **kwargs)
    assert _hidden_dead_counts(want, X.astype(np.float32)) == [0, 32]
    calls = _count_gradient_passes(monkeypatch)
    _assert_same_hidden_layers(train_regression_net(X, y, **kwargs), want)
    assert calls[0] == kwargs["iters"]


def test_a_certified_jump_replays_to_the_end_of_a_short_schedule(monkeypatch):
    """On a 100-step schedule the last hidden layer dies early and the
    certificate ends the descent at pass 38, while the per-layer loop's
    hidden layers still move on its last step: the replay runs to `iters`,
    through the step-size halvings at steps 40, 60 and 80, and ends on the
    loop's hidden layers bit for bit."""
    X, y = _training_data()
    kwargs = dict(hidden=(32, 32), seed=2, iters=100, lr=0.3)
    calls = _count_gradient_passes(monkeypatch)
    got = train_regression_net(X, y, **kwargs)
    want, last_but_one = (_reference_train(X, y, steps=k, **kwargs)[0] for k in (100, 99))
    assert calls[0] == 38
    assert not np.array_equal(_hidden_bits(want), _hidden_bits(last_but_one))
    _assert_same_hidden_layers(got, want)


def test_a_replay_that_leaves_its_certified_box_is_refused(monkeypatch):
    """The box is certified before the replay, so a replay whose end lies
    outside it proves nothing: with the box shrunk to half the exact reach
    of momentum alone, no certificate is taken and training stops at the
    fixed point, as without one, with the same hidden layers."""
    monkeypatch.setattr(tasks, "_ROUNDING_SLACK", -0.5)
    X, y = _training_data()
    kwargs = dict(hidden=(32, 32), seed=2, iters=1000, lr=0.2)
    calls = _count_gradient_passes(monkeypatch)
    got = train_regression_net(X, y, **kwargs)
    _assert_same_hidden_layers(got, _reference_train(X, y, **kwargs)[0])
    assert calls[0] == 196  # the fixed point of the test above


def test_training_through_a_one_pass_death_of_the_last_layer_takes_every_step(monkeypatch):
    """A last hidden layer dead on one pass only (pass 7 here, found by a
    seed search over small nets) revives under the momentum left, so the
    certificate tried on that pass must refuse: training takes every step
    and matches the per-layer loop bit for bit."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(32, 3))
    y = np.sin(X).sum(axis=1)
    kwargs = dict(hidden=(8, 2), seed=5, iters=100, lr=0.4)
    X32 = X.astype(np.float32)
    # pass k + 1 sees the net after k steps
    assert [_hidden_dead_counts(_reference_train(X, y, steps=k, **kwargs)[0], X32)[1]
            for k in (5, 6, 7)] == [1, 2, 1]
    verdicts = []

    def certify(*args):
        verdicts.append(last_hidden_dead_on_box(*args))
        return verdicts[-1]

    monkeypatch.setattr(tasks, "last_hidden_dead_on_box", certify)
    calls = _count_gradient_passes(monkeypatch)
    want, _ = _reference_train(X, y, **kwargs)
    _assert_same_hidden_layers(train_regression_net(X, y, **kwargs), want)
    assert calls[0] == kwargs["iters"] and verdicts == [False]


def _last_hidden_dead_at(net, X32, hidden) -> bool:
    """Whether a float32 gradient pass of `net`, its hidden parameters set to
    `hidden`, finds its last hidden layer dead, as training reads it."""
    net.params[:hidden.size] = hidden
    workspace = NetWorkspace(net, len(X32))
    net_weighted_gradient(net, X32, np.zeros_like, workspace)
    return workspace.last_hidden_dead


@pytest.mark.parametrize("hidden", [(4,), (24, 6), (6, 24, 5)])
def test_dead_layer_certificate_is_sound(hidden):
    """`last_hidden_dead_on_box` on small random nets and boxes, over more
    rows than one block: whenever it certifies a box, float32 passes at 12
    random corners, 12 random interior points and both ends find no live
    unit in the last hidden layer; every box holding a live point found so
    is refused. The last-layer biases put each unit's largest
    pre-activation at the box's centre below 0 by 0.01 to 1 (two thirds of
    the nets) or anywhere. In half of the first kind the box is one point
    and one unit's largest pre-activation lies within a few float32 ulps of
    0: there only the rounding margins tell a dead unit from a live one
    (with gamma set to 0, the nets of two hidden layers certify a live
    point)."""
    rng = np.random.default_rng(len(hidden))
    X32 = rng.normal(size=(200, 3)).astype(np.float32)
    certified = live = 0
    for case in range(90):
        net = init_net((3, *hidden, 1), seed=case).astype(np.float32)
        a = X32
        for layer in net.layers[:-2]:
            a = np.maximum(a @ layer.weights.T + layer.biases, 0.0)
        # each unit's largest pre-activation, bias left out, in float64
        top = (a.astype(float) @ net.layers[-2].weights.T.astype(float)).max(axis=0)
        kind = case % 3
        biases = net.layers[-2].biases
        biases[:] = (-top - rng.uniform(0.01, 1.0, size=top.shape) if kind < 2
                     else rng.uniform(-3.0, 0.5, size=top.shape))
        if kind == 0:
            j = rng.integers(len(biases))
            biases[j] = -top[j]
            for _ in range(rng.integers(4)):
                biases[j] = np.nextafter(biases[j], np.float32(rng.choice([-1.0, 1.0]) * np.inf))
        centre = net.params[:net.params.size - hidden[-1] - 1].copy()
        width = (rng.uniform(0.0, 0.01) * rng.random(centre.size)).astype(np.float32)
        width *= kind > 0
        lo, hi = centre - width, centre + width
        ok = last_hidden_dead_on_box(net, X32, lo, hi)
        points = [lo, hi]
        points += [np.where(rng.random(centre.size) < 0.5, lo, hi) for _ in range(12)]
        points += [(lo + rng.random(centre.size) * (hi - lo)).astype(np.float32)
                   for _ in range(12)]
        all_dead = all(_last_hidden_dead_at(net, X32, np.clip(q, lo, hi)) for q in points)
        assert all_dead or not ok
        certified += ok
        live += not all_dead
    assert certified >= 10 and live >= 10  # neither side is vacuous


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------


def test_sgd_clip_exact():
    net = DenseNet([Layer(np.array([[0.009]]), np.array([0.0]))])
    grads = [(np.array([[1.0]]), np.array([0.0]))]
    sgd_step(net, _flat(grads), 0.001, 0.01)
    w = net.layers[0].weights[0, 0]
    assert w == pytest.approx(0.01, abs=1e-15) and w <= 0.01  # reaches the clamp boundary


def test_sgd_zero_gradient_no_op():
    net = init_net((2, 3, 1), seed=4, scale=0.005)
    before = net.params.copy()
    grads = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
    sgd_step(net, _flat(grads), 0.5, 0.01)
    assert np.array_equal(net.params, before)


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
    sgd_step(net, _flat(grads), 0.004, 0.01)
    for layer, (w, b), (w0, b0) in zip(net.layers, want, arrays):
        assert layer.weights is w0 and layer.biases is b0
        assert np.array_equal(layer.weights, w) and np.array_equal(layer.biases, b)


@given(st.integers(0, 1000), st.floats(0.001, 1.0))
def test_sgd_clip_invariant(seed, lr):
    rng = np.random.default_rng(seed)
    net = init_net((2, 4, 1), seed=seed)
    grads = [(rng.normal(0, 10, l.weights.shape), rng.normal(0, 10, l.biases.shape))
             for l in net.layers]
    sgd_step(net, _flat(grads), lr, 0.01)
    assert np.abs(net.params).max() <= 0.01


def test_sgd_nonfinite_gradient():
    net = init_net((1, 2, 1), seed=0)
    grads = [(np.full_like(l.weights, np.nan), np.zeros_like(l.biases)) for l in net.layers]
    with pytest.raises(NumericError):
        sgd_step(net, _flat(grads), 0.1, 0.01)


def test_sgd_nonfinite_last_layer_changes_nothing():
    """A non-finite gradient in the last layer is caught before the first
    layer is stepped: no parameter of any layer changes."""
    net = init_net((2, 4, 3, 1), seed=2, scale=0.01)
    before = net.params.copy()
    grads = [(np.ones_like(l.weights), np.ones_like(l.biases)) for l in net.layers]
    grads[-1] = (grads[-1][0], np.array([np.inf]))
    with pytest.raises(NumericError):
        sgd_step(net, _flat(grads), 0.001, 0.01)
    assert np.array_equal(net.params, before)


def test_sgd_rejects_a_gradient_of_another_layout():
    net = init_net((2, 4, 1), seed=0)
    with pytest.raises(ValueError):
        sgd_step(net, np.zeros(net.params.size + 1), 0.1, 0.01)


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
    [model] = kmeans_fit(pts, [1], seed=0)
    assert np.allclose(model.centroids[0], pts.mean(axis=0))


def test_kmeans_separated_blobs(rng):
    pts, labels = _blobs(rng, [(0, 0, 5), (5, 0, 0), (0, 5, 0)])
    [model] = kmeans_fit(pts, [3], seed=1)
    assigned = kmeans_assign(model, pts)
    # each true blob maps to exactly one distinct cluster
    blob_clusters = [set(assigned[labels == i]) for i in range(3)]
    assert all(len(s) == 1 for s in blob_clusters)
    assert len(set.union(*blob_clusters)) == 3


def test_kmeans_duplicates_zero_inertia():
    pts = np.tile([1.0, 2.0], (8, 1))
    [model] = kmeans_fit(pts, [1], seed=0)
    assert model.inertia == 0.0


def test_kmeans_too_few_points():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((2, 2)), [3], seed=0)


def test_kmeans_inertia_non_increasing(rng):
    for trial in range(5):
        pts = rng.normal(0, 1, size=(40, 4))
        [model] = kmeans_fit(pts, [4], seed=trial)
        hist = np.array(model.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9)


def _reference_kmeans_fit(X, k, seed, max_iters=100):
    """k-means++ seeding and Lloyd iterations with each centroid the
    `.mean` of a boolean mask's members."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)

    def sq_dists(C):
        return np.maximum((X * X).sum(1)[:, None] - 2.0 * X @ C.T + (C * C).sum(1)[None, :], 0.0)

    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = sq_dists(centroids[:1]).min(axis=1)
    for j in range(1, k):
        total = closest.sum()
        idx = rng.integers(n) if total <= 0 else rng.choice(n, p=closest / total)
        centroids[j] = X[idx]
        closest = np.minimum(closest, sq_dists(centroids[j:j + 1]).min(axis=1))
    history, assign = [], None
    for _ in range(max_iters):
        d2 = sq_dists(centroids)
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = X[assign == j]
            if len(members) == 0:
                centroids[j] = X[int(d2[np.arange(n), assign].argmax())]
                continue
            centroids[j] = members.mean(axis=0)
    d2 = sq_dists(centroids)
    history.append(float(d2[np.arange(n), d2.argmin(axis=1)].sum()))
    return centroids, history


@pytest.mark.parametrize("task_name", ["dose", "regimen"])
def test_elbow_fits_equal_kmeans_fit_bit_for_bit(task_name):
    """The elbow seeds once at kmax and starts each k from the first k
    seeds; every fit is byte-identical to `kmeans_fit` at that k alone, and
    both to mask-and-mean Lloyd iterations."""
    from leon.critic import SourcePool

    task = tasks.make_task({"name": task_name})
    ks = list(range(2, 21))
    for seed in range(3):
        pool = SourcePool(task.space, task.source_designs(np.random.default_rng([seed, 2]), 128))
        for k, model in zip(ks, kmeans_fit(pool.encoded, ks, seed)):
            [direct] = kmeans_fit(pool.encoded, [k], seed=seed)
            centroids, history = _reference_kmeans_fit(pool.encoded, k, seed)
            assert model.centroids.tobytes() == direct.centroids.tobytes() == centroids.tobytes()
            assert model.inertia_history == direct.inertia_history == history


def test_kmeans_fit_with_empty_clusters_matches_reference():
    pts = np.repeat([[0.0, 1.0], [1.0, 0.5], [3.0, 2.0]], 5, axis=0)  # 3 distinct points
    for seed in range(4):
        [model] = kmeans_fit(pts, [6], seed=seed)
        centroids, history = _reference_kmeans_fit(pts, 6, seed)
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.inertia_history == history


def test_assign_exact_centroid_match():
    [model] = kmeans_fit(np.array([[0.0, 0], [10, 0], [0, 10]]), [3], seed=0)
    assert kmeans_assign(model, model.centroids).tolist() == [0, 1, 2]


def test_assign_tie_breaks_low_index():
    [model] = kmeans_fit(np.array([[-1.0], [1.0]]), [2], seed=0)
    # centroids at -1 and 1 in some order; 0 is equidistant
    assert kmeans_assign(model, np.array([[0.0]])).tolist() == [0]


def test_assign_matches_linear_scan(rng):
    pts = rng.normal(0, 1, size=(30, 3))
    [model] = kmeans_fit(pts, [4], seed=2)
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
    assert elbow_select_k([4], [kmeans_fit(pts, [4], seed=0)[0].inertia]) == 4


def test_elbow_finds_three_blobs(rng):
    pts, _ = _blobs(rng, [(0, 0), (8, 0), (0, 8)], n_per=30)
    ks = range(2, 9)
    assert elbow_select_k(ks, [model.inertia for model in kmeans_fit(pts, ks, seed=0)]) == 3


def test_chord_distance_linear_curve_prefers_first():
    ks = np.arange(2, 9)
    wcss = 100.0 - 7.5 * ks  # perfectly linear: every distance is 0
    dists = chord_distances(ks, wcss)
    assert np.allclose(dists, 0.0)
    assert int(np.argmax(dists)) == 0  # lowest-k tie-break
    assert elbow_select_k(ks, wcss) == 2


def test_elbow_insufficient_points():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((5, 2)), range(2, 11), seed=0)


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
