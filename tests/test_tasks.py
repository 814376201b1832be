import dataclasses
import functools
import itertools
import pickle

import numpy as np
import pytest

from leon import tasks
from leon.core import Context, Design, NumericError, encode_batch
from leon.numerics import (DenseNet, Layer, NetWorkspace, init_net, layer_views, net_forward_batch,
                           net_weighted_gradient)
from leon.optimizer import derive_seed
from leon.tasks import (
    AnalyticShiftSurrogate,
    MixtureSurrogate,
    OracleSurrogate,
    exact_w1_1d,
    grid_lipschitz,
    make_dose_task,
    make_learned_surrogate,
    make_regimen_task,
    make_surrogate,
    make_task,
    oracle_eval,
    theorem_s1_check,
    train_regression_net,
)


def _ctx(task, rng, which="target"):
    return task.sample_context(rng, which, id="t0")


# ---------------------------------------------------------------------------
# task construction
# ---------------------------------------------------------------------------


def test_make_task_by_name():
    assert make_task({"name": "dose", "seed": 3}).name == "dose"
    assert make_task({"name": "regimen"}).space.encoded_width == 16
    with pytest.raises(ValueError):
        make_task({"name": "unknown-task"})


def test_dose_optimum_scores_zero(dose_task, rng):
    for _ in range(5):
        ctx = _ctx(dose_task, rng)
        g = dose_task.optimum_location(ctx)
        if 0.0 <= g <= 100.0:
            assert oracle_eval(dose_task, Design((g,)), ctx) == pytest.approx(0.0, abs=1e-12)


def test_dose_strictly_concave(dose_task, rng):
    ctx = _ctx(dose_task, rng)
    xs = np.linspace(5, 95, 19)
    f = np.array([oracle_eval(dose_task, Design((float(x),)), ctx) for x in xs])
    second_diff = f[2:] - 2 * f[1:-1] + f[:-2]
    assert np.all(second_diff < 0)


def test_dose_quadratic_arithmetic(dose_task, rng):
    ctx = _ctx(dose_task, rng)
    g = dose_task.optimum_location(ctx)
    if not 0.0 <= g + 3.0 <= 100.0:
        pytest.skip("optimum too close to the boundary for this draw")
    assert oracle_eval(dose_task, Design((g + 3.0,)), ctx) == pytest.approx(-9.0)


def test_regimen_empty_design_scores_zero(regimen_task, rng):
    ctx = _ctx(regimen_task, rng)
    empty = Design((False,) * 16)
    assert oracle_eval(regimen_task, empty, ctx) == 0.0


def test_regimen_no_interactions_brute_force(rng):
    task = make_regimen_task(seed=5, n_bits=8, q_scale=0.0)
    ctx = _ctx(task, rng)
    w = task._W @ np.asarray(ctx.features) + task._w0
    expected = Design(tuple(bool(wi > 0) for wi in w))
    best, best_val = None, -np.inf
    for bits in itertools.product([False, True], repeat=8):
        val = oracle_eval(task, Design(bits), ctx)
        if val > best_val:
            best, best_val = Design(bits), val
    assert best == expected


def test_source_and_target_samplers_differ(dose_task):
    assert dose_task.params["m_source"] != dose_task.params["m_target"]
    diff = np.array(dose_task.params["m_target"]) - np.array(dose_task.params["m_source"])
    assert np.linalg.norm(diff) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# surrogates
# ---------------------------------------------------------------------------


def test_analytic_shift_exact_at_source_mean(dose_task):
    sur = AnalyticShiftSurrogate(dose_task, beta=0.5, radius=1.0)
    ctx = Context(tuple(dose_task.params["m_source"]), id="center")
    for x in np.linspace(0, 100, 21):
        d = Design((float(x),))
        assert sur.value(np.array([d.values]), ctx)[0] == oracle_eval(dose_task, d, ctx)


def test_analytic_shift_beta_zero_is_oracle(dose_task, rng):
    sur = AnalyticShiftSurrogate(dose_task, beta=0.0)
    ctx = _ctx(dose_task, rng)
    for x in (10.0, 50.0, 90.0):
        d = Design((x,))
        assert sur.value(np.array([d.values]), ctx)[0] == oracle_eval(dose_task, d, ctx)


def test_analytic_shift_biases_off_source(dose_task):
    sur = AnalyticShiftSurrogate(dose_task, beta=0.5, radius=1.0)
    far = Context((3.0, 3.0, 3.0, 3.0), id="far")
    bump_center = Design((dose_task.params["bump_center"],))
    assert sur.value(np.array([bump_center.values]), far)[0] > \
        oracle_eval(dose_task, bump_center, far)


@pytest.fixture(scope="module")
def learned_dose():
    task = make_dose_task(0)
    return task, make_learned_surrogate(task, seed=1)


def _rmse_and_std(task, sur, which, seed=99, n=256):
    rng = np.random.default_rng(seed)
    ctxs = [task.sample_context(rng, which, id=f"e{i}") for i in range(n)]
    designs = task.source_designs(rng, n)
    err, f_vals = [], []
    for row, c in zip(designs, ctxs):
        f = task.oracle_values(row[None], c)[0]
        err.append((sur.value(row[None], c)[0] - f) ** 2)
        f_vals.append(f)
    return float(np.sqrt(np.mean(err))), float(np.std(f_vals))


def test_learned_surrogate_fits_source_degrades_on_target(learned_dose):
    task, sur = learned_dose
    src_rmse, src_std = _rmse_and_std(task, sur, "source")
    tgt_rmse, _ = _rmse_and_std(task, sur, "target")
    assert src_rmse < 0.1 * src_std
    assert tgt_rmse > src_rmse


def test_learned_surrogates_compare_by_identity():
    space = make_dose_task(0).space
    net = init_net((3, 4, 1), seed=0)
    sur, twin = (tasks.LearnedSurrogate(n, space, np.zeros(3), np.ones(3), 0.0, 1.0)
                 for n in (net, net.copy()))
    assert sur == sur and sur != twin


def test_learned_surrogate_shift_premise_regimen():
    task = make_regimen_task(0)
    sur = make_learned_surrogate(task, seed=1, iters=1500)
    src_rmse, _ = _rmse_and_std(task, sur, "source")
    tgt_rmse, _ = _rmse_and_std(task, sur, "target")
    assert tgt_rmse > src_rmse


def _two_pass_train(X, y, hidden=(128, 128), seed=0, lr=0.05, iters=4000, momentum=0.9,
                    ridge=1e-6, dtype=np.float32):
    """Reference training loop: a separate forward pass for the residual,
    then a gradient pass with those weights as a constant, fresh arrays
    every step, all in `dtype`; then the ridge solve in float64."""
    net = init_net((X.shape[1], *hidden, 1), seed=seed).astype(dtype)
    n = X.shape[0]
    Xd, yd = X.astype(dtype), y.astype(dtype)
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
    stage = max(1, iters // 5)
    for it in range(iters):
        step = lr * 0.5 ** (it // stage)
        weights = -2.0 * (net_forward_batch(net, Xd) - yd) / n
        grad = net_weighted_gradient(net, Xd, lambda out: weights, NetWorkspace(net, n))
        for layer, (gw, gb), (vw, vb) in zip(net.layers, layer_views(net, grad), velocity):
            vw *= momentum
            vw += gw
            vb *= momentum
            vb += gb
            layer.weights = layer.weights + step * vw
            layer.biases = layer.biases + step * vb
    a = X
    for layer in net.layers[:-1]:
        a = np.maximum(a @ layer.weights.T + layer.biases, 0.0)
    H = np.concatenate([a, np.ones((len(a), 1))], axis=1)
    coef = np.linalg.solve(H.T @ H + ridge * np.eye(H.shape[1]), H.T @ y)
    net.layers[-1] = Layer(coef[:-1][None, :], coef[-1:])
    return net


@pytest.mark.parametrize("make_task_fn", [make_dose_task, make_regimen_task])
def test_training_matches_two_pass_reference(make_task_fn, monkeypatch):
    """The one-pass float32 training step keeps the two-pass loop's
    arithmetic: every weight and bias is bit-for-bit equal."""
    task = make_task_fn(0)
    kwargs = dict(seed=3, n_train=64, hidden=(16, 16), iters=30)
    fused = make_learned_surrogate(task, **kwargs).net
    monkeypatch.setattr(tasks, "train_regression_net", _two_pass_train)
    reference = make_learned_surrogate(task, **kwargs).net
    assert len(fused.layers) == len(reference.layers) == 3
    for got, want in zip(fused.layers, reference.layers):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.biases, want.biases)


@pytest.mark.parametrize("make_task_fn", [make_dose_task, make_regimen_task])
def test_float32_training_tracks_float64(make_task_fn, monkeypatch):
    """Training the hidden layers in float32 moves the surrogate's
    predictions by less than 1e-4 of the source std from the same descent
    in float64 (about 2e-6 measured)."""
    task = make_task_fn(0)
    kwargs = dict(seed=3, n_train=64, hidden=(16, 16), iters=30)
    got = make_learned_surrogate(task, **kwargs)
    monkeypatch.setattr(tasks, "train_regression_net",
                        functools.partial(_two_pass_train, dtype=np.float64))
    want = make_learned_surrogate(task, **kwargs)
    assert got.net.params.dtype == np.float64
    rng = np.random.default_rng(4)
    for which in ("source", "target"):
        ctx = task.sample_context(rng, which, id="c")
        V = task.source_designs(rng, 64)
        gap = np.abs(got.value(V, ctx) - want.value(V, ctx)).max()
        assert gap < 1e-4 * got.y_std


def test_training_takes_one_pass_per_step(monkeypatch):
    """Each step is one `tasks.net_weighted_gradient(net, X32, ...)` call
    on the one float32 copy of X, and no separate forward pass."""
    calls = {"gradient": 0, "forward": 0}
    X = np.random.default_rng(0).normal(size=(16, 3))
    y = X.sum(axis=1)
    seen = set()

    def gradient(net, X_arg, *args):
        assert isinstance(net, DenseNet) and net.params.dtype == X_arg.dtype == np.float32
        assert np.array_equal(X_arg, X.astype(np.float32))
        seen.add(id(X_arg))
        calls["gradient"] += 1
        return net_weighted_gradient(net, X_arg, *args)

    def forward(*args):
        calls["forward"] += 1
        return net_forward_batch(*args)

    monkeypatch.setattr(tasks, "net_weighted_gradient", gradient)
    monkeypatch.setattr(tasks, "net_forward_batch", forward)
    train_regression_net(X, y, hidden=(8,), iters=7)
    assert calls == {"gradient": 7, "forward": 0} and len(seen) == 1


def test_dose_workload_surrogate_leaves_its_dead_layer_early(monkeypatch):
    """The dose workload's patient 0 (task seed 2024, surrogate seed
    `derive_seed(derive_seed(2024, 0), 4)`): its last hidden layer dies at
    pass 51, and the certificate ends training within 64 gradient passes,
    where the fixed-point stop alone takes 231, with the same net bit for
    bit."""
    task = make_task({"name": "dose", "seed": 2024})
    seed = derive_seed(derive_seed(2024, 0), 4)
    calls = [0]

    def gradient(*args):
        calls[0] += 1
        return net_weighted_gradient(*args)

    monkeypatch.setattr(tasks, "net_weighted_gradient", gradient)
    got = make_learned_surrogate(task, seed=seed).net
    assert calls[0] <= 64
    calls[0] = 0
    monkeypatch.setattr(tasks, "_coast_dead", lambda *args: False)
    want = make_learned_surrogate(task, seed=seed).net
    assert calls[0] == 231
    assert np.array_equal(got.params.view(np.uint64), want.params.view(np.uint64))


def _per_row_source_designs(task, rng, n):
    """`Task.source_designs` as it drew every row, one context and its noise
    at a time: the reference for the block draw."""
    out = np.empty((n, len(task.space.dims)))
    for i in range(n):
        z = rng.normal(task._m_src, 1.0)
        if task.kind == "quadratic-dose":
            g = task.params["g_bias"] + float(task._g_w @ z)
            out[i] = min(max(g + rng.normal(0.0, 3.0), 0.0), 100.0)
        else:
            bits = (task._W @ z + task._w0) > 0
            out[i] = bits != (rng.random(len(bits)) < 0.1)
    return out


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("task_name", ["dose", "regimen"])
@pytest.mark.parametrize("seed", [0, 2024])
def test_block_draws_keep_the_per_row_bits(task_name, seed):
    """`Task.source_contexts` and `Task.source_designs` give the per-row
    draws' bits and leave the generator where those leave it."""
    task = make_task({"name": task_name, "seed": seed})
    got_rng, want_rng = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
    for n in (1, 7, 768):
        got = task.source_contexts(got_rng, n)
        want = np.array([task.sample_context(want_rng, "source").features for _ in range(n)])
        assert _same_bits(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert _same_bits(task.source_designs(got_rng, n), _per_row_source_designs(task, want_rng, n))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("task_name", ["dose", "regimen"])
def test_learned_training_set_keeps_the_per_row_bits(task_name, monkeypatch):
    """`make_learned_surrogate` trains on the rows, bit for bit, that one
    `Context` per row and a per-row oracle call give."""
    seen = {}

    def capture(X, y, **kwargs):
        seen.update(X=X, y=y)
        return init_net((X.shape[1], 1), seed=0)

    monkeypatch.setattr(tasks, "train_regression_net", capture)
    task = make_task({"name": task_name, "seed": 2024})
    make_learned_surrogate(task, seed=3, n_train=96)
    rng = np.random.default_rng([3, 21])
    ctxs = [task.sample_context(rng, "source") for _ in range(96)]
    V = _per_row_source_designs(task, rng, 96)
    X = np.concatenate([encode_batch(task.space, V), np.array([c.features for c in ctxs])], axis=1)
    y = np.array([task.oracle_values(V[i:i + 1], c)[0] for i, c in enumerate(ctxs)])
    x_std = X.std(axis=0)
    x_std = np.where(x_std > 1e-9, x_std, 1.0)
    assert _same_bits(seen["X"], (X - X.mean(axis=0)) / x_std)
    assert _same_bits(seen["y"], (y - y.mean()) / (y.std() or 1.0))


def test_training_divergence_raises():
    X = np.random.default_rng(1).normal(size=(16, 3))
    y = X.sum(axis=1)
    with pytest.raises(NumericError, match="diverged"):
        train_regression_net(X, np.where(np.arange(16) == 5, np.nan, y), hidden=(8,), iters=3)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="diverged"):
        train_regression_net(X, y, hidden=(8, 8), lr=1e6, iters=50)
    # a divergence on the last step leaves no loss to check, only the parameters
    for lr in (1e300, 1e40):
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="diverged"):
            train_regression_net(X, y, hidden=(8,), iters=1, lr=lr)


def test_make_surrogate_variants(dose_task):
    assert isinstance(make_surrogate(dose_task, "analytic-shift"), AnalyticShiftSurrogate)
    for unknown in ("tabular-gp", "oracle"):  # the oracle arm is a mixture weight of 1
        with pytest.raises(ValueError, match="unknown surrogate variant"):
            make_surrogate(dose_task, unknown)


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


class _Const:
    def __init__(self, v):
        self.v = v

    def value(self, designs, ctx):
        return np.full(len(designs), self.v)


def test_mixture_endpoints_and_midpoint():
    f, f_hat = _Const(2.0), _Const(0.0)
    V, ctx = np.ones((1, 1)), Context((0.0,), id="c")
    assert MixtureSurrogate(f, f_hat, 1.0).value(V, ctx)[0] == 2.0
    assert MixtureSurrogate(f, f_hat, 0.0).value(V, ctx)[0] == 0.0
    assert MixtureSurrogate(f, f_hat, 0.5).value(V, ctx)[0] == 1.0


def test_mixture_rejects_bad_weight():
    with pytest.raises(ValueError):
        MixtureSurrogate(_Const(1.0), _Const(0.0), 1.5)
    with pytest.raises(ValueError):
        MixtureSurrogate(_Const(1.0), _Const(0.0), -0.1)


def test_mixture_monotone_toward_oracle(dose_task, regimen_task, rng):
    for task in (dose_task, regimen_task):
        oracle = OracleSurrogate(task)
        biased = AnalyticShiftSurrogate(task, beta=0.5)
        ctx = _ctx(task, rng)
        if task is dose_task:
            probes = np.linspace(0, 100, 41)[:, None]
        else:  # the bump's own pattern among random regimens
            probes = np.vstack([task._pattern, rng.integers(2, size=(40, 16))]).astype(float)
        gaps = []
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = MixtureSurrogate(oracle, biased, w)
            gaps.append(float(np.abs(mixed.value(probes, ctx) - oracle.value(probes, ctx)).max()))
        assert gaps[0] > 0.0  # the target context is off-source, so the surrogate is biased
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == 0.0


# ---------------------------------------------------------------------------
# transport distance and the risk bound
# ---------------------------------------------------------------------------


def test_exact_w1_equal_sizes_matches_sorted_mean():
    rng = np.random.default_rng(1)
    a, b = rng.normal(0, 1, 16), rng.normal(2, 1, 16)
    expected = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    assert exact_w1_1d(a, b) == pytest.approx(expected, abs=1e-12)


def test_exact_w1_known_shift():
    a = np.linspace(0, 1, 11)
    assert exact_w1_1d(a, a + 2.5) == pytest.approx(2.5, abs=1e-12)


def test_exact_w1_unequal_sizes():
    # point mass at 0 vs uniform {0,1}: half the mass moves distance 1
    assert exact_w1_1d([0.0], [0.0, 1.0]) == pytest.approx(0.5)


@pytest.mark.parametrize("sizes", [(25, 7), (7, 25), (1, 59)])
def test_exact_w1_matches_scipy(sizes):
    """Sizes whose quantile grids meet at a float product such as
    7/25 * 25 = 7.000000000000001, which an order-statistic index taken
    by rounding up reads one place too far."""
    from scipy.stats import wasserstein_distance

    rng = np.random.default_rng(sum(sizes))
    for _ in range(20):
        a, b = rng.normal(0, 1, sizes[0]), rng.normal(0.5, 2, sizes[1])
        assert exact_w1_1d(a, b) == pytest.approx(wasserstein_distance(a, b), abs=1e-12)


def test_risk_bound_zero_for_perfect_surrogate():
    f = lambda x: 3.0 * x  # noqa: E731
    res = theorem_s1_check(f, f, [(x, f(x)) for x in np.linspace(0, 1, 8)],
                           np.linspace(2, 3, 8), 3.0, 3.0)
    assert res["lhs"] == 0.0
    assert res["lhs"] <= res["rhs"]


def test_risk_bound_no_shift_reduces_to_train_residual():
    f = lambda x: np.sin(x)  # noqa: E731
    f_hat = lambda x: np.sin(x) + 0.05  # noqa: E731
    xs = np.linspace(0, 2, 12)
    res = theorem_s1_check(f, f_hat, [(x, f(x)) for x in xs], xs, 1.0, 1.0)
    assert res["w1"] == pytest.approx(0.0, abs=1e-12)
    assert res["lhs"] == pytest.approx(res["eps"], abs=1e-12)


def test_risk_bound_piecewise_example():
    f = lambda x: x  # noqa: E731
    f_hat = lambda x: x + 0.1 * max(0.0, x - 1.0)  # noqa: E731
    rng = np.random.default_rng(3)
    train = rng.uniform(0, 1, 24)
    test = rng.uniform(1, 2, 24)
    res = theorem_s1_check(f, f_hat, [(x, f(x)) for x in train], test, 1.0, 1.1)
    assert res["lhs"] <= res["rhs"]
    assert res["lhs"] > 0  # the shift genuinely hurts


def test_grid_lipschitz_linear_function():
    assert grid_lipschitz(lambda x: 4.0 * x, np.array([0.0, 1.0])) == pytest.approx(4.0, rel=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_grid_lipschitz_bounds_every_pairwise_quotient(seed):
    """On a random piecewise-linear function, the grid estimate is at least
    the difference quotient of every pair of sample points."""
    rng = np.random.default_rng(seed)
    knots = np.sort(rng.uniform(-1.0, 2.0, size=8))
    heights = rng.normal(0.0, 3.0, size=8)

    def fn(x):
        return float(np.interp(x, knots, heights))

    xs = rng.uniform(-1.5, 2.5, size=30)
    ys = np.array([fn(x) for x in xs])
    dx = np.abs(xs[:, None] - xs[None, :])
    off = dx > 0
    pairwise = (np.abs(ys[:, None] - ys[None, :])[off] / dx[off]).max()
    assert grid_lipschitz(fn, xs, grid_n=11) >= pairwise


# ---------------------------------------------------------------------------
# the batch contract
# ---------------------------------------------------------------------------


def _small_learned(task):
    return make_learned_surrogate(task, seed=1, n_train=64, hidden=(16, 16), iters=30)


SURROGATE_BUILDS = {
    "oracle": OracleSurrogate,
    "analytic-shift": AnalyticShiftSurrogate,
    "learned": _small_learned,
    "mixture": lambda task: MixtureSurrogate(OracleSurrogate(task),
                                             AnalyticShiftSurrogate(task), 0.25),
}


@pytest.mark.parametrize("variant", SURROGATE_BUILDS)
@pytest.mark.parametrize("task_name", ["dose", "regimen"])
def test_batch_rows_are_one_design_batches(task_name, variant):
    """Row i of a batch's values is design i scored alone: exactly on the
    dose closed forms, and to summation order through regimen's matrix
    products and the learned net."""
    task = make_task({"name": task_name})
    sur = SURROGATE_BUILDS[variant](task)
    rng = np.random.default_rng(5)
    ctx = task.sample_context(rng, "target", id="t")
    assert AnalyticShiftSurrogate(task).shift_weight(ctx) > 0  # the bump is on
    designs = task.source_designs(rng, 33)
    batch = sur.value(designs, ctx)
    alone = np.array([sur.value(row[None], ctx)[0] for row in designs])
    assert batch.shape == (33,)
    if task_name == "dose" and variant != "learned":
        assert np.array_equal(batch, alone)
    else:
        np.testing.assert_allclose(batch, alone, rtol=1e-12, atol=0)


@pytest.mark.parametrize("task_name", ["dose", "regimen"])
def test_oracle_is_the_one_row_batch_of_the_closed_form(task_name):
    task = make_task({"name": task_name})
    rng = np.random.default_rng(6)
    ctx = task.sample_context(rng, "target", id="t")
    z = np.asarray(ctx.features)
    for row in task.source_designs(rng, 16):
        d = Design(tuple(row) if task_name == "dose" else tuple(row.astype(bool).tolist()))
        assert task.oracle(d, ctx) == task.oracle_values(row[None], ctx)[0]
        if task_name == "dose":
            closed = -(d.values[0] - task.optimum_location(ctx)) ** 2
        else:
            x = row
            closed = (task._W @ z + task._w0) @ x + x @ task._Q @ x
        assert task.oracle(d, ctx) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("make_task_fn", [make_dose_task, make_regimen_task])
def test_context_memos_are_invisible(make_task_fn):
    """A task and a surrogate keep the last context's terms: asked about
    contexts A, B, A and an equal but distinct copy of A, each answers
    bit for bit as a fresh object does, and the memo is in no field, so
    `==`, `repr` and a pickled copy see no difference."""
    task = make_task_fn(0)
    sur = AnalyticShiftSurrogate(task)
    rng = np.random.default_rng(9)
    a, b = (task.sample_context(rng, "target", id=i) for i in ("a", "b"))
    a_copy = Context(a.features, id="a")
    V = task.source_designs(rng, 5)
    for ctx in (a, b, a, a_copy, a_copy):
        fresh = make_task_fn(0)
        fresh_sur = AnalyticShiftSurrogate(fresh)
        assert task.oracle_values(V, ctx).tobytes() == fresh.oracle_values(V, ctx).tobytes()
        assert sur.value(V, ctx).tobytes() == fresh_sur.value(V, ctx).tobytes()
        assert sur.shift_weight(ctx) == fresh_sur.shift_weight(ctx)
        if task.kind == "quadratic-dose":
            assert task.optimum_location(ctx) == fresh.optimum_location(ctx)
    assert [f.name for f in dataclasses.fields(task)] == \
        ["name", "kind", "space", "ctx_dim", "description", "params"]
    assert [f.name for f in dataclasses.fields(sur)] == ["task", "beta", "radius"]
    assert task == fresh and sur == fresh_sur
    assert repr(task) == repr(fresh) and repr(sur) == repr(fresh_sur)
    copy = pickle.loads(pickle.dumps(sur))
    assert copy == fresh_sur
    for ctx in (b, a):
        assert copy.value(V, ctx).tobytes() == fresh_sur.value(V, ctx).tobytes()
