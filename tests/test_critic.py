import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import leon.critic
from leon.core import ContinuousDim, DesignSpace, NumericError, encode_batch
from leon.critic import (
    CLIP,
    SourcePool,
    critic_train,
    critic_values,
    init_critic,
    w1_estimate,
)
from leon.numerics import (DenseNet, Layer, NetWorkspace, layer_views, lipschitz_bound,
                           net_forward_batch, net_gradient)
from leon.tasks import exact_w1_1d, make_regimen_task

SPACE_1D = DesignSpace((ContinuousDim("Dose", 0.0, 100.0),))


def _designs(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def _enc(values):
    return encode_batch(SPACE_1D, _designs(values))


def _w1(critic, src_enc, gen_enc):
    return w1_estimate(critic_values(critic, src_enc), critic_values(critic, gen_enc))


def _identity_critic():
    # single identity layer undoes the [0,1] encoding: c(encode(x)) == x
    return DenseNet([Layer(np.array([[100.0]]), np.array([0.0]))])


def test_zero_critic_value():
    critic = DenseNet([Layer(np.zeros((8, 1)), np.zeros(8)),
                       Layer(np.zeros((1, 8)), np.zeros(1))])
    assert critic_values(critic, _enc([0.0, 33.3, 100.0])).tolist() == [0.0, 0.0, 0.0]


def test_critic_value_deterministic_and_composed():
    critic = init_critic(SPACE_1D, hidden=(16, 16), seed=5)
    X = _enc([42.0, 7.0, 99.0])
    a = critic_values(critic, X)
    assert np.array_equal(a, critic_values(critic, X))
    for row, d in zip(a, _designs([42.0, 7.0, 99.0])):
        assert row == pytest.approx(net_forward_batch(critic, encode_batch(SPACE_1D, d[None]))[0],
                                    rel=1e-12, abs=1e-15)
    assert critic_values(critic, X[:0]).shape == (0,)


def test_w1_identical_batches():
    critic = init_critic(SPACE_1D, seed=0)
    batch = _enc([10, 20, 30])
    assert _w1(critic, batch, batch) == 0.0


def test_w1_hand_arithmetic():
    critic = _identity_critic()
    assert _w1(critic, _enc([1, 3]), _enc([0, 2])) == pytest.approx(1.0)


def test_w1_antisymmetric():
    critic = init_critic(SPACE_1D, seed=3)
    src, gen = _enc([5, 15, 25]), _enc([60, 80])
    assert _w1(critic, src, gen) == pytest.approx(-_w1(critic, gen, src))


def test_w1_empty_batch():
    with pytest.raises(ValueError):
        w1_estimate(np.zeros(0), np.ones(1))
    with pytest.raises(ValueError):
        w1_estimate(np.ones(1), np.zeros(0))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_keeps_clip_exactly():
    critic = init_critic(SPACE_1D, seed=1)
    trained, *_ = critic_train(critic, _enc(np.linspace(10, 30, 16)),
                               _enc(np.linspace(70, 90, 8)), lr=0.01, max_iters=50)
    assert np.abs(trained.params).max() <= CLIP


def test_train_same_distribution_stays_flat():
    pts = _enc(np.linspace(20, 80, 32))
    _, *values = critic_train(init_critic(SPACE_1D, seed=2), pts, pts, lr=0.001)
    assert abs(w1_estimate(*values)) <= 0.05


def test_train_separates_and_respects_exact_w1():
    src = _enc(np.linspace(0, 20, 24))
    gen = _enc(np.linspace(80, 100, 24))
    _, *values = critic_train(init_critic(SPACE_1D, seed=4), src, gen,
                              lr=0.001, max_iters=500)
    est = w1_estimate(*values)
    # encoded units: sorted-sample transport distance is the oracle
    true_w1 = exact_w1_1d(src[:, 0], gen[:, 0])
    assert est > 0
    assert est <= true_w1 + 0.05


def test_dual_estimate_bounded_by_lipschitz_times_w1():
    rng = np.random.default_rng(7)
    src = _designs(rng.uniform(0, 40, size=16))
    gen = _designs(rng.uniform(55, 100, size=16))
    trained, *values = critic_train(init_critic(SPACE_1D, seed=6), encode_batch(SPACE_1D, src),
                                    encode_batch(SPACE_1D, gen), lr=0.005, max_iters=300)
    est = w1_estimate(*values)
    lip = lipschitz_bound(trained)
    assert lip > 0

    # 1-D oracle by sorting
    w1_sorted = exact_w1_1d(src[:, 0] / 100.0, gen[:, 0] / 100.0)
    assert est / lip <= w1_sorted + 1e-9

    # small-instance matching oracle agrees with the sorted computation
    a = np.sort(src[:, 0] / 100.0)
    b = np.sort(gen[:, 0] / 100.0)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    w1_matched = cost[rows, cols].mean()
    assert w1_matched == pytest.approx(w1_sorted, abs=1e-12)


def _three_call_train(critic, src_enc, gen_enc, lr, tol=1e-4, max_iters=500):
    """Reference loop: a gradient pass over every row into fresh buffers, a
    clipped step into a fresh net, then a separate W1 estimate of the
    stepped net. Returns the net and the number of steps taken."""
    net = critic.copy()
    prev = None
    calm = 0
    steps = 0
    for _ in range(max_iters):
        grad, _ = net_gradient(net, src_enc, gen_enc,
                               NetWorkspace(net, len(src_enc) + len(gen_enc)))
        net = DenseNet([Layer(np.clip(l.weights + lr * dW, -CLIP, CLIP),
                              np.clip(l.biases + lr * db, -CLIP, CLIP))
                        for l, (dW, db) in zip(net.layers, layer_views(net, grad))])
        steps += 1
        est = _w1(net, src_enc, gen_enc)
        assert np.isfinite(est)
        if prev is not None and abs(est - prev) < tol:
            calm += 1
            if calm >= 5:
                break
        else:
            calm = 0
        prev = est
    return net, steps


def _default_like_batches(seed):
    rng = np.random.default_rng(seed)
    return _enc(rng.uniform(30, 70, size=128)), _enc(rng.uniform(60, 100, size=32))


@pytest.mark.parametrize("case", ["calm", "max_iters", "regimen", "large_pool"])
def test_train_matches_three_call_reference(case):
    """One pass per iteration, stepped in place, returns the net of the
    reference loop bit for bit, whether training stops on the calm rule or
    runs out of iterations, and on a 600-row source pool as on a small one,
    and with it that net's values on both batches."""
    if case == "regimen":
        space = make_regimen_task(0).space
        rng = np.random.default_rng(2)
        src = rng.integers(0, 2, size=(128, len(space.dims))).astype(float)
        gen = rng.integers(0, 2, size=(32, len(space.dims))).astype(float)
        critic = init_critic(space, hidden=(64, 64), seed=5)
        kwargs = dict(lr=0.001)
    elif case == "large_pool":
        rng = np.random.default_rng(4)
        src, gen = _enc(rng.uniform(0, 60, size=600)), _enc(rng.uniform(40, 100, size=32))
        critic = init_critic(SPACE_1D, hidden=(16, 16), seed=1)
        kwargs = dict(lr=0.005, max_iters=60)
    else:
        src, gen = _default_like_batches(1)
        critic = init_critic(SPACE_1D, hidden=(64, 64), seed=3)
        # tol 0 never counts an iteration as calm
        kwargs = dict(lr=0.001) if case == "calm" else dict(lr=0.001, tol=0.0, max_iters=40)
    initial = critic.params.copy()
    trained, src_values, gen_values = critic_train(critic, src, gen, **kwargs)
    assert np.array_equal(critic.params, initial)  # the input is not stepped
    reference, steps = _three_call_train(critic, src, gen, **kwargs)
    if case == "max_iters":
        assert steps == 40
    elif case != "large_pool":
        assert steps < 500  # stopped on the calm rule
    for got, want in zip(trained.layers, reference.layers):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.biases, want.biases)
    assert np.array_equal(src_values, critic_values(trained, src))
    assert np.array_equal(gen_values, critic_values(trained, gen))


def _count_critic_calls(monkeypatch):
    calls = {"gradient": [], "forward": 0}

    def gradient(net, pos, neg, *args):
        calls["gradient"].append((len(pos), len(neg)))
        return net_gradient(net, pos, neg, *args)

    def forward(*args):
        calls["forward"] += 1
        return net_forward_batch(*args)

    monkeypatch.setattr(leon.critic, "net_gradient", gradient)
    monkeypatch.setattr(leon.critic, "net_forward_batch", forward)
    return calls


def test_train_takes_one_gradient_pass_per_iteration(monkeypatch):
    """Training makes only gradient passes: the estimate comes from each
    pass's own outputs, with no separate forward pass."""
    calls = _count_critic_calls(monkeypatch)
    src, gen = _default_like_batches(1)
    critic = init_critic(SPACE_1D, hidden=(64, 64), seed=3)
    critic_train(critic, src, gen, lr=0.001, tol=0.0, max_iters=40)
    assert calls == {"gradient": [(128, 32)] * 41, "forward": 0}


def test_train_without_iterations_is_one_forward_pass(monkeypatch):
    """`max_iters=0` makes one pass, forward only, and no step: the net is
    returned unchanged with its values."""
    import leon.numerics

    calls = _count_critic_calls(monkeypatch)
    backward = []
    monkeypatch.setattr(leon.numerics, "_backward", lambda *a: backward.append(a))
    src, gen = _default_like_batches(2)
    critic = init_critic(SPACE_1D, hidden=(64, 64), seed=4)
    trained, src_values, gen_values = critic_train(critic, src, gen, lr=0.001, max_iters=0)
    assert calls == {"gradient": [(128, 32)], "forward": 0} and backward == []
    assert np.array_equal(trained.params, critic.params)
    assert np.array_equal(src_values, critic_values(critic, src))
    assert np.array_equal(gen_values, critic_values(critic, gen))


def test_train_aborts_on_nonfinite():
    bad = DenseNet([Layer(np.array([[np.nan]]), np.array([0.0]))])
    with pytest.raises(NumericError):
        critic_train(bad, _enc([10, 20]), _enc([80]), lr=0.001)


def test_train_validates_inputs():
    src = _enc([10])
    critic = init_critic(SPACE_1D, seed=0)
    with pytest.raises(ValueError):
        critic_train(critic, src, _enc([]), lr=0.001)
    with pytest.raises(ValueError):
        critic_train(critic, src, _enc([1]), lr=0.0)


def test_source_pool_non_empty():
    with pytest.raises(ValueError):
        SourcePool(SPACE_1D, [])
