import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from leon.core import ContinuousDim, Design, DesignSpace, NumericError, encode_batch, encode_design
from leon.critic import (
    CriticModel,
    SourcePool,
    critic_train,
    critic_values,
    init_critic,
    w1_estimate,
)
from leon.numerics import DenseNet, Layer, flatten_params, lipschitz_bound, net_forward
from leon.tasks import exact_w1_1d

SPACE_1D = DesignSpace((ContinuousDim("Dose", 0.0, 100.0),))


def _designs(values):
    return [Design((float(v),)) for v in values]


def _enc(values):
    return encode_batch(SPACE_1D, _designs(values))


def _identity_critic():
    # single identity layer undoes the [0,1] encoding: c(encode(x)) == x
    return CriticModel(net=DenseNet([Layer(np.array([[100.0]]), np.array([0.0]), "id")]),
                       clip=100.0)


def test_zero_critic_value():
    critic = CriticModel(net=DenseNet([Layer(np.zeros((8, 1)), np.zeros(8), "relu"),
                                       Layer(np.zeros((1, 8)), np.zeros(1), "id")]))
    assert critic_values(critic, _enc([0.0, 33.3, 100.0])).tolist() == [0.0, 0.0, 0.0]


def test_critic_value_deterministic_and_composed():
    critic = init_critic(SPACE_1D, hidden=(16, 16), seed=5)
    X = _enc([42.0, 7.0, 99.0])
    a = critic_values(critic, X)
    assert np.array_equal(a, critic_values(critic, X))
    for row, d in zip(a, _designs([42.0, 7.0, 99.0])):
        assert row == pytest.approx(net_forward(critic.net, encode_design(SPACE_1D, d)),
                                    rel=1e-12, abs=1e-15)
    assert critic_values(critic, X[:0]).shape == (0,)


def test_w1_identical_batches():
    critic = init_critic(SPACE_1D, seed=0)
    batch = _enc([10, 20, 30])
    assert w1_estimate(critic, batch, batch) == 0.0


def test_w1_hand_arithmetic():
    critic = _identity_critic()
    assert w1_estimate(critic, _enc([1, 3]), _enc([0, 2])) == pytest.approx(1.0)


def test_w1_antisymmetric():
    critic = init_critic(SPACE_1D, seed=3)
    src, gen = _enc([5, 15, 25]), _enc([60, 80])
    assert w1_estimate(critic, src, gen) == pytest.approx(-w1_estimate(critic, gen, src))


def test_w1_empty_batch():
    critic = init_critic(SPACE_1D, seed=0)
    with pytest.raises(ValueError):
        w1_estimate(critic, _enc([]), _enc([1]))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_keeps_clip_exactly():
    critic = init_critic(SPACE_1D, seed=1)
    trained = critic_train(critic, _enc(np.linspace(10, 30, 16)), _enc(np.linspace(70, 90, 8)),
                           lr=0.01, max_iters=50, seed=0)
    assert np.abs(flatten_params(trained.net)).max() <= trained.clip


def test_train_same_distribution_stays_flat():
    pts = _enc(np.linspace(20, 80, 32))
    trained = critic_train(init_critic(SPACE_1D, seed=2), pts, pts, lr=0.001, seed=0)
    assert abs(w1_estimate(trained, pts, pts)) <= 0.05


def test_train_separates_and_respects_exact_w1():
    src = _enc(np.linspace(0, 20, 24))
    gen = _enc(np.linspace(80, 100, 24))
    trained = critic_train(init_critic(SPACE_1D, seed=4), src, gen,
                           lr=0.001, max_iters=500, seed=0)
    est = w1_estimate(trained, src, gen)
    # encoded units: sorted-sample transport distance is the oracle
    true_w1 = exact_w1_1d(src[:, 0], gen[:, 0])
    assert est > 0
    assert est <= true_w1 + 0.05


def test_dual_estimate_bounded_by_lipschitz_times_w1():
    rng = np.random.default_rng(7)
    src = _designs(rng.uniform(0, 40, size=16))
    gen = _designs(rng.uniform(55, 100, size=16))
    trained = critic_train(init_critic(SPACE_1D, seed=6), encode_batch(SPACE_1D, src),
                           encode_batch(SPACE_1D, gen), lr=0.005, max_iters=300, seed=1)
    est = w1_estimate(trained, encode_batch(SPACE_1D, src), encode_batch(SPACE_1D, gen))
    lip = lipschitz_bound(trained.net)
    assert lip > 0

    # 1-D oracle by sorting
    w1_sorted = exact_w1_1d([d.values[0] / 100.0 for d in src],
                            [d.values[0] / 100.0 for d in gen])
    assert est / lip <= w1_sorted + 1e-9

    # small-instance matching oracle agrees with the sorted computation
    a = np.sort([d.values[0] / 100.0 for d in src])
    b = np.sort([d.values[0] / 100.0 for d in gen])
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    w1_matched = cost[rows, cols].mean()
    assert w1_matched == pytest.approx(w1_sorted, abs=1e-12)


def test_train_aborts_on_nonfinite():
    bad = CriticModel(net=DenseNet([Layer(np.array([[np.nan]]), np.array([0.0]), "id")]))
    with pytest.raises(NumericError):
        critic_train(bad, _enc([10, 20]), _enc([80]), lr=0.001, seed=0)


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
