import itertools

import numpy as np
import pytest

from leon import tasks
from leon.core import Context, Design, NumericError, encode_batch
from leon.numerics import (DenseNet, Layer, init_net, net_forward_batch, net_weighted_gradient,
                           net_workspace)
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
        assert sur.value([d], ctx)[0] == oracle_eval(dose_task, d, ctx)


def test_analytic_shift_beta_zero_is_oracle(dose_task, rng):
    sur = AnalyticShiftSurrogate(dose_task, beta=0.0)
    ctx = _ctx(dose_task, rng)
    for x in (10.0, 50.0, 90.0):
        d = Design((x,))
        assert sur.value([d], ctx)[0] == oracle_eval(dose_task, d, ctx)


def test_analytic_shift_biases_off_source(dose_task):
    sur = AnalyticShiftSurrogate(dose_task, beta=0.5, radius=1.0)
    far = Context((3.0, 3.0, 3.0, 3.0), id="far")
    bump_center = Design((dose_task.params["bump_center"],))
    assert sur.value([bump_center], far)[0] > oracle_eval(dose_task, bump_center, far)


@pytest.fixture(scope="module")
def learned_dose():
    task = make_dose_task(0)
    return task, make_learned_surrogate(task, seed=1)


def _rmse_and_std(task, sur, which, seed=99, n=256):
    rng = np.random.default_rng(seed)
    ctxs = [task.sample_context(rng, which, id=f"e{i}") for i in range(n)]
    designs = task.source_designs(rng, n)
    err, f_vals = [], []
    for d, c in zip(designs, ctxs):
        f = oracle_eval(task, d, c)
        err.append((sur.value([d], c)[0] - f) ** 2)
        f_vals.append(f)
    return float(np.sqrt(np.mean(err))), float(np.std(f_vals))


def test_learned_surrogate_fits_source_degrades_on_target(learned_dose):
    task, sur = learned_dose
    src_rmse, src_std = _rmse_and_std(task, sur, "source")
    tgt_rmse, _ = _rmse_and_std(task, sur, "target")
    assert src_rmse < 0.1 * src_std
    assert tgt_rmse > src_rmse


def test_learned_surrogate_shift_premise_regimen():
    task = make_regimen_task(0)
    sur = make_learned_surrogate(task, seed=1, iters=1500)
    src_rmse, _ = _rmse_and_std(task, sur, "source")
    tgt_rmse, _ = _rmse_and_std(task, sur, "target")
    assert tgt_rmse > src_rmse


def _two_pass_train(X, y, hidden=(128, 128), seed=0, lr=0.05, iters=4000, momentum=0.9,
                    ridge=1e-6):
    """Reference training loop: a separate forward pass for the residual,
    then a gradient pass with those weights as a constant, fresh arrays
    every step."""
    net = init_net((X.shape[1], *hidden, 1), seed=seed)
    n = X.shape[0]
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
    stage = max(1, iters // 5)
    for it in range(iters):
        step = lr * 0.5 ** (it // stage)
        weights = -2.0 * (net_forward_batch(net, X) - y) / n
        grads = net_weighted_gradient(net, X, lambda out: weights, net_workspace(net, n))
        for layer, (gw, gb), (vw, vb) in zip(net.layers, grads, velocity):
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
    net.layers[-1] = Layer(coef[:-1][None, :], coef[-1:], "id")
    return net


@pytest.mark.parametrize("make_task_fn", [make_dose_task, make_regimen_task])
def test_training_matches_two_pass_reference(make_task_fn, monkeypatch):
    """The one-pass training step keeps the two-pass loop's arithmetic:
    every weight and bias is bit-for-bit equal."""
    task = make_task_fn(0)
    kwargs = dict(seed=3, n_train=64, hidden=(16, 16), iters=30)
    fused = make_learned_surrogate(task, **kwargs).net
    monkeypatch.setattr(tasks, "train_regression_net", _two_pass_train)
    reference = make_learned_surrogate(task, **kwargs).net
    assert len(fused.layers) == len(reference.layers) == 3
    for got, want in zip(fused.layers, reference.layers):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.biases, want.biases)


def test_training_takes_one_pass_per_step(monkeypatch):
    """Each step is one `tasks.net_weighted_gradient(net, X, ...)` call
    and no separate forward pass."""
    calls = {"gradient": 0, "forward": 0}
    X = np.random.default_rng(0).normal(size=(16, 3))
    y = X.sum(axis=1)

    def gradient(net, X_arg, *args):
        assert isinstance(net, DenseNet) and X_arg is X
        calls["gradient"] += 1
        return net_weighted_gradient(net, X_arg, *args)

    def forward(*args):
        calls["forward"] += 1
        return net_forward_batch(*args)

    monkeypatch.setattr(tasks, "net_weighted_gradient", gradient)
    monkeypatch.setattr(tasks, "net_forward_batch", forward)
    train_regression_net(X, y, hidden=(8,), iters=7)
    assert calls == {"gradient": 7, "forward": 0}


def test_training_divergence_raises():
    X = np.random.default_rng(1).normal(size=(16, 3))
    y = X.sum(axis=1)
    with pytest.raises(NumericError, match="diverged"):
        train_regression_net(X, np.where(np.arange(16) == 5, np.nan, y), hidden=(8,), iters=3)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="diverged"):
        train_regression_net(X, y, hidden=(8, 8), lr=1e6, iters=50)


def test_make_surrogate_variants(dose_task):
    assert isinstance(make_surrogate(dose_task, "analytic-shift"), AnalyticShiftSurrogate)
    assert isinstance(make_surrogate(dose_task, "oracle"), OracleSurrogate)
    with pytest.raises(ValueError):
        make_surrogate(dose_task, "tabular-gp")


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
    d, ctx = Design((1.0,)), Context((0.0,), id="c")
    assert MixtureSurrogate(f, f_hat, 1.0).value([d], ctx)[0] == 2.0
    assert MixtureSurrogate(f, f_hat, 0.0).value([d], ctx)[0] == 0.0
    assert MixtureSurrogate(f, f_hat, 0.5).value([d], ctx)[0] == 1.0


def test_mixture_rejects_bad_weight():
    with pytest.raises(ValueError):
        MixtureSurrogate(_Const(1.0), _Const(0.0), 1.5)
    with pytest.raises(ValueError):
        MixtureSurrogate(_Const(1.0), _Const(0.0), -0.1)


def test_mixture_monotone_toward_oracle(dose_task, rng):
    oracle = OracleSurrogate(dose_task)
    biased = AnalyticShiftSurrogate(dose_task, beta=0.5)
    ctx = _ctx(dose_task, rng)
    probes = [Design((float(x),)) for x in np.linspace(0, 100, 41)]
    gaps = []
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        mixed = MixtureSurrogate(oracle, biased, w)
        gaps.append(float(np.abs(mixed.value(probes, ctx) - oracle.value(probes, ctx)).max()))
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
    alone = np.array([sur.value([d], ctx)[0] for d in designs])
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
    for d in task.source_designs(rng, 16):
        assert task.oracle(d, ctx) == task.oracle_values([d], ctx)[0]
        if task_name == "dose":
            closed = -(d.values[0] - task.optimum_location(ctx)) ** 2
        else:
            x = np.array(d.values, dtype=float)
            closed = (task._W @ z + task._w0) @ x + x @ task._Q @ x
        assert task.oracle(d, ctx) == pytest.approx(closed, rel=1e-12)
