import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

import leon.critic
from leon.core import ContinuousDim, DesignSpace, NumericError, encode_batch
from leon.critic import (
    EPS_SCALE,
    ITERS,
    SourcePool,
    cost_matrix,
    critic_train,
    critic_values,
    init_critic,
    w1_estimate,
)
from leon.tasks import exact_w1_1d, make_dose_task, make_regimen_task

SPACE_1D = DesignSpace((ContinuousDim("Dose", 0.0, 100.0),))
CONT = SPACE_1D.is_bool


def _designs(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def _enc(values):
    return encode_batch(SPACE_1D, _designs(values))


def _w1(critic, src_enc, gen_enc):
    return w1_estimate(critic_values(critic, src_enc), critic_values(critic, gen_enc))


def _slope(critic, xs):
    """Largest slope of a 1-D critic between neighbouring sorted points,
    which in 1-D is the largest over all pairs."""
    xs = np.unique(xs)
    return float(np.max(np.abs(np.diff(critic_values(critic, xs[:, None]))) / np.diff(xs)))


def _with_potentials(critic, f):
    return replace(critic, f=np.asarray(f, dtype=float))


def test_zero_critic_value():
    """A fresh critic has f = 0: it reads 0 on its pool rows and minus the
    distance to the nearest pool row elsewhere."""
    critic = init_critic(_enc([20.0, 60.0]), CONT)
    assert critic_values(critic, _enc([20.0, 60.0, 30.0, 100.0])).tolist() == pytest.approx(
        [0.0, 0.0, -0.1, -0.4], abs=1e-15)


def test_critic_value_deterministic_and_composed():
    rng = np.random.default_rng(5)
    critic = _with_potentials(init_critic(_enc(rng.uniform(0, 100, 16)), CONT),
                              rng.normal(size=16))
    X = _enc([42.0, 7.0, 99.0])
    a = critic_values(critic, X)
    assert np.array_equal(a, critic_values(critic, X))
    for row, x in zip(a, X):
        assert row == max(f - abs(x[0] - s[0]) for f, s in zip(critic.f, critic.pool))
    assert critic_values(critic, X[:0]).shape == (0,)


@pytest.mark.parametrize("make_task", [make_dose_task, make_regimen_task], ids=["dose", "regimen"])
def test_fresh_critic_reads_positive_zero_on_its_pool(make_task):
    """With f = 0 the value on a pool row is 0 - c(x, x) = +0.0, no sign bit,
    so a run's score partition adds nothing to the pool's raw values."""
    task = make_task(0)
    for seed in range(3):
        pool = SourcePool(task.space, task.source_designs(np.random.default_rng([seed, 2]), 128))
        values = critic_values(init_critic(pool.encoded, task.space.is_bool), pool.encoded)
        assert np.all(values == 0.0) and not np.signbit(values).any()


def test_critic_refuses_rows_of_another_width():
    """A (32, 1) batch against a 16-dim pool would broadcast to 32 values;
    every entry point refuses it through the cost."""
    critic = init_critic(np.random.default_rng(0).integers(0, 2, size=(128, 16)).astype(float),
                         np.ones(16, dtype=bool))
    for call in (lambda X: critic_values(critic, X), lambda X: critic_train(critic, X),
                 lambda X: cost_matrix(critic.pool, X, critic.is_bool)):
        with pytest.raises(ValueError):
            call(np.zeros((32, 1)))
        with pytest.raises(ValueError):
            call(np.zeros(16))  # one row, not a batch
    with pytest.raises(ValueError):
        init_critic(np.zeros(16), np.ones(16, dtype=bool))


def test_cost_is_normalized_euclidean():
    """c(x, y) = ||x - y|| / sqrt(d): the encoded cube has diameter 1, and
    equal rows cost exactly 0."""
    space = make_regimen_task(0).space
    d = space.encoded_width
    X = np.array([np.zeros(d), np.ones(d), np.r_[np.ones(4), np.zeros(d - 4)]])
    C = cost_matrix(X, X, space.is_bool)
    assert np.diag(C).tolist() == [0.0, 0.0, 0.0]
    assert C[0, 1] == 1.0
    assert C[0, 2] == pytest.approx(np.sqrt(4 / d), rel=1e-15)


def _einsum_cost(X, Y):
    """Reference: the cost as one blocked sum of squared differences over
    every column, boolean or not."""
    out = np.empty((len(X), len(Y)))
    rows = max(1, 2**15 // max(1, Y.size))
    for i in range(0, len(X), rows):
        diff = X[i:i + rows, None, :] - Y[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[i:i + rows])
    return np.sqrt(out / X.shape[1], out=out)


def _rows_with_corners(rng, is_bool, n):
    """`n` encoded rows on a mask's columns (booleans 0 or 1, the rest in
    [0, 1]) with an all-0 row, an all-1 row and duplicates among them."""
    X = np.where(is_bool, rng.integers(0, 2, size=(n, len(is_bool))),
                 rng.uniform(0.0, 1.0, size=(n, len(is_bool))))
    X[0], X[1] = 0.0, 1.0
    X[2:6] = X[6:10]
    return X


@pytest.mark.parametrize("kind", ["boolean", "continuous", "mixed"])
def test_cost_matches_the_sum_of_squared_differences(kind):
    """The two-term cost gives the bits of one sum of squared differences on
    all-boolean rows (its mismatch count is an exact integer) and on
    all-continuous rows, and is within rounding of it on mixed rows; equal
    rows cost exactly 0. Sizes span several blocks of the continuous term."""
    rng = np.random.default_rng(11)
    for d in (1, 3, 16, 40):
        is_bool = {"boolean": np.ones(d, dtype=bool), "continuous": np.zeros(d, dtype=bool),
                   "mixed": np.arange(d) % 2 == 0}[kind]
        for n, m in ((128, 32), (300, 200), (1, 1)):
            X = _rows_with_corners(rng, is_bool, max(n, 10))[:n]
            Y = np.concatenate([X[:m // 2], _rows_with_corners(rng, is_bool, max(m, 10))])[:m]
            got, want = cost_matrix(X, Y, is_bool), _einsum_cost(X, Y)
            if kind == "mixed" and 0 < is_bool.sum() < d:
                assert np.allclose(got, want, rtol=1e-14, atol=0)
            else:
                assert got.tobytes() == want.tobytes()
            same = np.all(X[:, None, :] == Y[None, :, :], axis=2)
            assert np.all(got[same] == 0.0)


def test_cost_needs_a_boolean_mask_of_the_row_width():
    X = np.zeros((4, 3))
    for mask in (np.ones(2, dtype=bool), np.ones((1, 3), dtype=bool), np.ones(3),
                 [True, True, True]):
        with pytest.raises(ValueError):
            cost_matrix(X, X, mask)


def test_boolean_columns_change_no_bit_of_a_regimen_refit():
    """On 16 boolean dims the refit's costs, potentials and values are those
    of the sum of squared differences, bit for bit."""
    space = make_regimen_task(0).space
    rng = np.random.default_rng(6)
    src = encode_batch(space, rng.integers(0, 2, size=(128, 16)).astype(float))
    gen = encode_batch(space, (rng.random((32, 16)) < 0.7).astype(float))
    critic = init_critic(src, space.is_bool)
    assert critic.pool_cost.tobytes() == _einsum_cost(src, src).tobytes()
    trained, *values = critic_train(critic, gen)
    C = _einsum_cost(src, gen)
    f = leon.critic._sinkhorn(C, critic.f, EPS_SCALE * float(C.mean()))
    assert trained.f.tobytes() == f.tobytes()
    want = [(f[:, None] - _einsum_cost(src, src)).max(axis=0), (f[:, None] - C).max(axis=0),
            (critic.f[:, None] - C).max(axis=0)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(values, want))


def test_w1_identical_batches():
    batch = _enc([10, 20, 30])
    _, *values, _ = critic_train(init_critic(batch, CONT), batch)
    assert w1_estimate(*values) == 0.0


def test_w1_hand_arithmetic():
    # pool at encoded 0 and 1 with f = 0: phi(0.25) = -0.25, phi(0.5) = -0.5
    critic = init_critic(_enc([0, 100]), CONT)
    assert _w1(critic, _enc([0, 100]), _enc([25, 50])) == pytest.approx(0.375, abs=1e-15)


def test_w1_antisymmetric():
    critic = _with_potentials(init_critic(_enc([5, 15, 25]), CONT), [0.1, -0.2, 0.05])
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
    """A refit critic stays in its class exactly: its values on any two rows
    differ by at most their cost, and the values it returns are its own."""
    src, gen = _enc(np.linspace(10, 30, 16)), _enc(np.linspace(70, 90, 8))
    trained, src_values, gen_values, _ = critic_train(init_critic(src, CONT), gen)
    X = np.concatenate([src, gen, _enc(np.random.default_rng(1).uniform(0, 100, 64))])
    phi = critic_values(trained, X)
    assert np.all(np.abs(phi[:, None] - phi[None, :]) <= cost_matrix(X, X, CONT) + 1e-12)
    assert np.array_equal(src_values, critic_values(trained, src))
    assert np.array_equal(gen_values, critic_values(trained, gen))


def test_train_same_distribution_stays_flat():
    pts = _enc(np.linspace(20, 80, 32))
    _, *values, _ = critic_train(init_critic(pts, CONT), pts)
    assert abs(w1_estimate(*values)) <= 1e-12


def test_train_separates_and_respects_exact_w1():
    src = _enc(np.linspace(0, 20, 24))
    gen = _enc(np.linspace(80, 100, 24))
    _, *values, _ = critic_train(init_critic(src, CONT), gen)
    est = w1_estimate(*values)
    # encoded units: sorted-sample transport distance is the oracle
    true_w1 = exact_w1_1d(src[:, 0], gen[:, 0])
    assert 0.9 * true_w1 <= est <= true_w1 + 1e-12


def test_dual_estimate_bounded_by_lipschitz_times_w1():
    """The refit critic is 1-Lipschitz in the cost (finite differences on a
    2,001-point grid), so its estimate is at most the exact W1."""
    rng = np.random.default_rng(7)
    src = _designs(rng.uniform(0, 40, size=16))
    gen = _designs(rng.uniform(55, 100, size=16))
    trained, *values, _ = critic_train(init_critic(encode_batch(SPACE_1D, src), CONT),
                                       encode_batch(SPACE_1D, gen))
    est = w1_estimate(*values)
    grid = np.concatenate([np.linspace(0.0, 1.0, 2001), src[:, 0] / 100.0, gen[:, 0] / 100.0])
    lip = _slope(trained, grid)
    assert 0 < lip <= 1 + 1e-9

    # 1-D oracle by sorting
    w1_sorted = exact_w1_1d(src[:, 0] / 100.0, gen[:, 0] / 100.0)
    assert est <= lip * w1_sorted + 1e-12
    assert est >= 0.9 * w1_sorted

    # small-instance matching oracle agrees with the sorted computation
    a = np.sort(src[:, 0] / 100.0)
    b = np.sort(gen[:, 0] / 100.0)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    w1_matched = cost[rows, cols].mean()
    assert w1_matched == pytest.approx(w1_sorted, abs=1e-12)


def test_regimen_estimate_is_a_lower_bound_on_exact_w1():
    """On 16 boolean dims the estimate stays below the exact W1, found by
    matching each batch row to 4 pool rows (128 = 4 x 32)."""
    space = make_regimen_task(0).space
    rng = np.random.default_rng(3)
    src = encode_batch(space, rng.integers(0, 2, size=(128, 16)).astype(float))
    gen = encode_batch(space, (rng.random((32, 16)) < 0.8).astype(float))
    _, *values, _ = critic_train(init_critic(src, space.is_bool), gen)
    cost = cost_matrix(src, np.repeat(gen, 4, axis=0), space.is_bool)
    rows, cols = linear_sum_assignment(cost)
    exact = cost[rows, cols].mean()
    assert 0.9 * exact <= w1_estimate(*values) <= exact + 1e-12


def _log_domain_sinkhorn(C, f, eps):
    """Reference: ITERS Sinkhorn iterations on potentials, every half step a
    log-sum-exp."""
    n, m = C.shape
    for _ in range(ITERS):
        g = -eps * (np.log(m) + logsumexp((f[:, None] - C) / eps, axis=0))
        f = -eps * (np.log(n) + logsumexp((g[None, :] - C) / eps, axis=1))
    return f


def _three_call_train(critic, gen_enc):
    """Reference: scipy's cost matrix, a log-domain Sinkhorn solve, then the
    c-transform on each row set. Returns the potentials and both sets'
    values."""
    pool = critic.pool
    d = pool.shape[1]
    C = cdist(pool, gen_enc) / np.sqrt(d)
    f = _log_domain_sinkhorn(C, critic.f, EPS_SCALE * C.mean())
    return (f, np.max(f[:, None] - cdist(pool, pool) / np.sqrt(d), axis=0),
            np.max(f[:, None] - C, axis=0))


def _default_like_batches(seed):
    rng = np.random.default_rng(seed)
    return _enc(rng.uniform(30, 70, size=128)), _enc(rng.uniform(60, 100, size=32))


@pytest.mark.parametrize("case", ["dose", "warm_start", "regimen", "large_pool"])
def test_train_matches_three_call_reference(case):
    """The exp-domain solve gives the log-domain Sinkhorn's potentials, on a
    default-like dose pair, from the last step's potentials, on 16 boolean
    dims and on a 600-row pool, and with them both sets' values."""
    mask = CONT
    if case == "regimen":
        space = make_regimen_task(0).space
        mask = space.is_bool
        rng = np.random.default_rng(2)
        src = encode_batch(space, rng.integers(0, 2, size=(128, 16)).astype(float))
        gen = encode_batch(space, rng.integers(0, 2, size=(32, 16)).astype(float))
    elif case == "large_pool":
        rng = np.random.default_rng(4)
        src, gen = _enc(rng.uniform(0, 60, size=600)), _enc(rng.uniform(40, 100, size=32))
    else:
        src, gen = _default_like_batches(1)
    critic = init_critic(src, mask)
    if case == "warm_start":
        critic, *_ = critic_train(critic, _default_like_batches(2)[1])
    f0 = critic.f.copy()
    trained, src_values, gen_values, prior_values = critic_train(critic, gen)
    assert np.array_equal(critic.f, f0)  # the input critic is not changed
    # the batch's values under the input critic, as a step scores them
    assert np.array_equal(prior_values, critic_values(critic, gen))
    f, want_src, want_gen = _three_call_train(critic, gen)
    scale = EPS_SCALE * cost_matrix(src, gen, mask).mean()
    assert np.allclose(trained.f, f, rtol=0, atol=1e-9 * scale)
    assert np.allclose(src_values, want_src, rtol=0, atol=1e-9 * scale)
    assert np.allclose(gen_values, want_gen, rtol=0, atol=1e-9 * scale)
    assert np.array_equal(src_values, critic_values(trained, src))
    assert np.array_equal(gen_values, critic_values(trained, gen))


def test_train_builds_one_cost_matrix(monkeypatch):
    """A refit builds one pool x batch cost matrix and runs one solve: the
    pool's own costs come from `init_critic`."""
    calls = []

    def counted(X, Y, is_bool):
        calls.append((len(X), len(Y)))
        return cost_matrix(X, Y, is_bool)

    src, gen = _default_like_batches(1)
    critic = init_critic(src, CONT)
    monkeypatch.setattr(leon.critic, "cost_matrix", counted)
    critic_train(critic, gen)
    assert calls == [(128, 32)]


def test_train_without_iterations_is_one_forward_pass(monkeypatch):
    """A batch on the one point of a one-point pool has eps = 0: training
    runs no solve and returns the critic's own potentials with its values."""
    monkeypatch.setattr(leon.critic, "_sinkhorn", lambda *a: pytest.fail("solved"))
    pool = _enc([40.0, 40.0, 40.0])
    critic = _with_potentials(init_critic(pool, CONT), [0.25, -0.5, 0.0])
    trained, src_values, gen_values, prior_values = critic_train(critic, _enc([40.0, 40.0]))
    assert np.array_equal(trained.f, critic.f)
    assert src_values.tolist() == [0.25] * 3 and gen_values.tolist() == [0.25] * 2
    assert prior_values.tolist() == [0.25] * 2


def _far_row_case():
    rng = np.random.default_rng(0)
    pool = rng.uniform(0.0, 0.001, size=(128, 1))
    batch = rng.uniform(0.0, 0.001, size=(64, 1))
    batch[-1] = 1.0
    return pool, batch


def test_train_stays_finite_where_the_kernel_underflows():
    """One batch row far from a tight pool: max C / mean C is about 63, so
    exp(-C / eps) underflows to 0 on that row's column, where the plain
    exp-domain recipe divides by 0."""
    pool, batch = _far_row_case()
    C = cost_matrix(pool, batch, CONT)
    assert np.exp(-C / (EPS_SCALE * C.mean()))[:, -1].max() == 0.0
    exact = exact_w1_1d(pool[:, 0], batch[:, 0])
    assert exact == pytest.approx(0.01563, abs=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trained, *values, _ = critic_train(init_critic(pool, CONT), batch)
    assert np.isfinite(trained.f).all()
    assert 0.9 * exact <= w1_estimate(*values) <= exact + 1e-12


def test_train_stays_finite_from_a_warm_start_far_wider_than_eps():
    """Potentials left by a step whose costs were large, refit to a batch
    whose eps is 5 orders of magnitude smaller: exp(f / eps) overflows in
    the plain recipe. The solve stays finite and matches the log-domain
    reference."""
    rng = np.random.default_rng(1)
    pool = rng.uniform(0.0, 0.001, size=(128, 1))
    batch = rng.uniform(0.0, 0.001, size=(64, 1))
    critic = _with_potentials(init_critic(pool, CONT), rng.uniform(0.0, 1.0, size=128))
    eps = EPS_SCALE * cost_matrix(pool, batch, CONT).mean()
    assert np.ptp(critic.f) / eps > 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trained, *values, _ = critic_train(critic, batch)
    assert np.isfinite(trained.f).all()
    f, want_src, want_gen = _three_call_train(critic, batch)
    assert np.allclose(trained.f, f, rtol=0, atol=1e-9)
    assert 0 < w1_estimate(*values) <= exact_w1_1d(pool[:, 0], batch[:, 0]) + 1e-12


def test_train_aborts_on_nonfinite():
    src = _enc([10, 20])
    bad = _with_potentials(init_critic(src, CONT), [np.nan, 0.0])
    with pytest.raises(NumericError):
        critic_train(bad, _enc([80]))
    with pytest.raises(NumericError):
        critic_train(init_critic(src, CONT), np.array([[np.nan]]))


def test_train_validates_inputs():
    critic = init_critic(_enc([10]), CONT)
    with pytest.raises(ValueError):
        critic_train(critic, _enc([]))
    with pytest.raises(ValueError):
        critic_train(critic, np.zeros((3, 2)))  # the pool has one column
    with pytest.raises(ValueError):
        init_critic(np.zeros((0, 1)), CONT)


def test_source_pool_non_empty():
    with pytest.raises(ValueError):
        SourcePool(SPACE_1D, [])
