import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leon.certainty import (
    ClassStats,
    boltzmann_weights,
    class_optima,
    dual_gradient,
    estimate_mu,
    log_partition,
    score_designs,
    update_lambda,
)
from leon.numerics import stable_softmax


def _stats(values, q=None):
    n = len(values)
    return ClassStats(
        q_hat=np.array(q) if q is not None else np.ones(n) / n,
        best_rows=np.arange(n),
        best_values=np.array(values, dtype=float),
    )


# ---------------------------------------------------------------------------
# class optima
# ---------------------------------------------------------------------------


def test_class_optima_single_class():
    stats = class_optima([1.0, 3.0], [0, 0])
    assert stats.best_values.tolist() == [3.0]
    assert stats.q_hat.tolist() == [1.0]
    assert stats.best_rows.tolist() == [1]


def test_class_optima_lambda_zero_is_argmax_f():
    f, c = np.array([2.0, 5.0, 1.0]), np.array([9.0, -9.0, 9.0])
    stats = class_optima(f + 0.0 * c, [0, 0, 0])
    assert stats.best_rows.tolist() == [1]  # index of f-max, critic ignored


def test_class_optima_lambda_weighting():
    # lam=2: second design wins because 0 + 2*1 > 1 + 2*0
    f, c = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    stats = class_optima(f + 2.0 * c, [0, 0])
    assert stats.best_values.tolist() == [2.0]
    assert stats.best_rows.tolist() == [1]
    assert c[stats.best_rows].tolist() == [1.0]


def test_class_optima_first_occurrence_on_tie():
    stats = class_optima([1.0, 1.0], [0, 0])
    assert stats.best_rows.tolist() == [0]


def test_class_optima_misaligned():
    with pytest.raises(ValueError):
        class_optima([1.0], [0, 1])
    with pytest.raises(ValueError):
        class_optima([], [])


def _class_optima_loop(f_vals, c_vals, assignments, lam):
    """Per-row reference: strict improvement, so the first of ties stays;
    a class's share is its row count over the batch size."""
    best, count = {}, {}
    for row, (f, c, cid) in enumerate(zip(f_vals, c_vals, assignments)):
        raw = float(f) + lam * float(c)
        count[cid] = count.get(cid, 0) + 1
        if cid not in best or raw > best[cid][0]:
            best[cid] = (raw, row, float(c))
    ids = sorted(best)
    shares = [count[i] / len(assignments) for i in ids]
    return (ids, shares, [best[i][1] for i in ids], [best[i][0] for i in ids],
            [best[i][2] for i in ids])


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 4)),
                min_size=1, max_size=40),
       st.sampled_from([0.0, 0.5, 2.0]))
def test_class_optima_matches_loop_reference(rows, lam):
    # small integer values make ties between rows frequent; labels may be negative
    f_vals, c_vals, assignments = (np.array(col, dtype=float) for col in zip(*rows))
    assignments = assignments.astype(int)
    stats = class_optima(f_vals + lam * c_vals, assignments)
    ids, shares, best_rows, best_values, best_critic = _class_optima_loop(
        f_vals, c_vals, assignments, lam)
    assert assignments[stats.best_rows].tolist() == ids
    assert stats.q_hat.tolist() == shares  # exact: count / n
    assert stats.best_rows.tolist() == best_rows
    assert stats.best_values.tolist() == best_values
    assert c_vals[stats.best_rows].tolist() == best_critic


def test_class_optima_occupancies_sum_to_one():
    stats = class_optima([1.0, 2.0, 3.0, 4.0], [0, 0, 2, 2])
    assert stats.best_rows.tolist() == [1, 3]  # one entry per observed class
    assert stats.q_hat.sum() == pytest.approx(1.0)


def test_class_optima_shares_examples():
    """Each observed class's share of the batch, in ascending label order;
    classes with no row have no entry."""
    for labels, shares in (([0, 0, 1, 1], [0.5, 0.5]),
                           ([2, 2, 2], [1.0]),
                           ([0, 1, 1, 2], [0.25, 0.5, 0.25])):
        assert class_optima(np.zeros(len(labels)), labels).q_hat.tolist() == shares


def test_class_optima_reads_any_integer_labels():
    """A class is a label: only the order of labels matters, not their range."""
    raw = [2.0, 5.0, 1.0]
    got, ref = class_optima(raw, [7, 7, -3]), class_optima(raw, [1, 1, 0])
    assert got.q_hat.tolist() == ref.q_hat.tolist() == [1 / 3, 2 / 3]
    assert got.best_rows.tolist() == ref.best_rows.tolist() == [2, 1]
    assert got.best_values.tolist() == ref.best_values.tolist() == [1.0, 5.0]


# ---------------------------------------------------------------------------
# boltzmann weights
# ---------------------------------------------------------------------------


def test_boltzmann_mu_zero_uniform():
    w = boltzmann_weights(_stats([5.0, -1.0, 2.0]), mu=0.0)
    assert np.allclose(w, 1.0 / 3.0)


def test_boltzmann_ln3_example():
    w = boltzmann_weights(_stats([1.0, 0.0]), mu=math.log(3.0))
    assert np.allclose(w, [0.75, 0.25])


def test_boltzmann_shift_invariant():
    base = boltzmann_weights(_stats([0.3, -0.7, 1.1]), mu=1.7)
    shifted = boltzmann_weights(_stats([0.3 + 42, -0.7 + 42, 1.1 + 42]), mu=1.7)
    assert np.allclose(base, shifted)


@given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
       st.floats(0.0, 5.0))
def test_boltzmann_matches_brute_force(values, mu):
    w = boltzmann_weights(_stats(values), mu=mu)
    raw = np.exp(mu * (np.array(values) - max(values)))
    assert np.abs(w - raw / raw.sum()).max() <= 1e-12
    assert w.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# mu estimation
# ---------------------------------------------------------------------------


def test_mu_exact_boltzmann_recovery():
    s = np.array([0.0, 0.4, 0.8, 1.2])
    for mu_true in (0.5, 2.0, 5.0):
        q = stable_softmax(mu_true * s)
        stats = _stats(s, q=q)
        assert estimate_mu(stats, prev_mu=1.0) == pytest.approx(mu_true, abs=1e-9)


def test_mu_equal_occupancy_is_zero():
    stats = _stats([1.0, 2.0, 3.0], q=[1 / 3] * 3)
    assert estimate_mu(stats, prev_mu=7.0) == 0.0


def test_mu_single_class_carries_forward():
    stats = _stats([4.0], q=[1.0])
    assert estimate_mu(stats, prev_mu=3.5) == 3.5


def test_mu_zero_variance_carries_forward():
    stats = _stats([2.0, 2.0], q=[0.7, 0.3])
    assert estimate_mu(stats, prev_mu=1.25) == 1.25


def test_mu_clamped():
    s = np.array([0.0, 1e-9])
    q = np.array([0.01, 0.99])  # enormous positive slope
    assert estimate_mu(_stats(s, q=q), prev_mu=1.0) == 100.0
    q_neg = np.array([0.99, 0.01])  # negative slope clamps at zero
    assert estimate_mu(_stats(s, q=q_neg), prev_mu=1.0) == 0.0


# ---------------------------------------------------------------------------
# dual gradient and lambda updates
# ---------------------------------------------------------------------------


def test_dual_gradient_zero_when_bound_met():
    qbar = np.array([0.5, 0.5])
    # E_src[c] - sum q c = 1.3 - 0.3 = 1.0 == w0
    assert dual_gradient(1.0, 1.3, [0.3, 0.3], qbar) == pytest.approx(0.0)


def test_dual_gradient_arithmetic():
    qbar = np.array([0.5, 0.5])
    assert dual_gradient(1.0, 0.3, [-0.2, -0.2], qbar) == pytest.approx(0.5)


def test_dual_gradient_zero_critic():
    assert dual_gradient(1.0, 0.0, [0.0, 0.0], np.array([0.4, 0.6])) == pytest.approx(1.0)


def test_dual_gradient_misaligned():
    with pytest.raises(ValueError):
        dual_gradient(1.0, 0.0, [0.0, 0.0], np.array([1.0]))


def test_dual_gradient_matches_finite_difference():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        f, c = rng.normal(0, 1, n), rng.normal(0, 1, n)
        mu = float(rng.uniform(0.2, 4.0))
        lam = float(rng.uniform(0.0, 2.0))
        w0, src = float(rng.uniform(0, 2)), float(rng.normal())

        def g(l):
            return l * (w0 - src) + 1.0 / mu + log_partition(f + l * c, mu) / mu

        qbar = boltzmann_weights(_stats(f + lam * c), mu)
        h = 1e-6
        fd = (g(lam + h) - g(lam - h)) / (2 * h)
        assert dual_gradient(w0, src, c, qbar) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_update_lambda_arithmetic():
    assert update_lambda(0.5, grad=0.5, eta_lambda=0.1, step=1) == pytest.approx(0.45)


def test_update_lambda_zero_gradient():
    assert update_lambda(0.7, grad=0.0, eta_lambda=0.1, step=4) == 0.7


def test_update_lambda_projects_to_zero():
    assert update_lambda(0.0, grad=1.0, eta_lambda=0.1, step=1) == 0.0


def test_update_lambda_sqrt_decay():
    assert update_lambda(1.0, grad=1.0, eta_lambda=0.1, step=4) == pytest.approx(1.0 - 0.05)


def test_lambda_sign_behavior():
    # out-of-distribution optima: critic values far below the source mean
    grad_ood = dual_gradient(1.0, 2.0, [-0.5, -0.5], np.array([0.5, 0.5]))
    assert grad_ood < 0
    assert update_lambda(0.5, grad_ood, 0.1, step=1) > 0.5

    # in-distribution optima: class values match the source mean, bound slack
    grad_ind = dual_gradient(1.0, 2.0, [2.0, 2.0], np.array([0.5, 0.5]))
    assert grad_ind > 0
    assert update_lambda(0.5, grad_ind, 0.1, step=1) < 0.5


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_score_designs_examples():
    assert score_designs([1.0, -3.0], 0.0).tolist() == [0.0, -0.0]
    assert score_designs([1.5, 2.5], 1.0).tolist() == [1.5, 2.5]
    assert score_designs([-1.0, 0.5], 2.0).tolist() == [-2.0, 1.0]


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=10), st.floats(0.01, 10))
def test_score_preserves_argmax(raw, mu):
    scores = score_designs(raw, mu)
    assert int(np.argmax(scores)) == int(np.argmax(raw))

