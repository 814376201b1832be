from types import SimpleNamespace

import numpy as np
import pytest
from paired import paired, prefix_scores

from leon.core import Design, Hyperparams, TrajectoryMemory
from leon.optimizer import RunConfig, run_method
from leon.tasks import oracle_eval


def test_paired_on_a_small_sample():
    # differences 2, -1, 0, 2: mean 0.75, sample sd 1.5, so SEM 1.5 / 2
    stats = paired([3.0, 1.0, 2.0, 2.0], [1.0, 2.0, 2.0, 0.0])
    assert (stats.mean, stats.sem) == (0.75, 0.75)
    assert (stats.wins, stats.ties, stats.losses) == (2, 1, 1)
    assert stats.p == 1.0  # 2 of 3 untied pairs


def test_paired_sign_test_is_two_sided_over_untied_pairs():
    a = np.arange(12.0)
    b = np.concatenate([a[:10] - 1.0, a[10:]])  # 10 wins, 2 ties
    stats = paired(a, b)
    assert (stats.wins, stats.ties, stats.losses) == (10, 2, 0)
    assert stats.p == pytest.approx(2 * 0.5 ** 10)
    swapped = paired(b, a)
    assert (swapped.wins, swapped.losses, swapped.mean) == (0, 10, -stats.mean)
    assert swapped.p == stats.p


def test_paired_degenerate_samples():
    tied = paired([1.0, 2.0], [1.0, 2.0])
    assert (tied.mean, tied.sem, tied.ties, tied.p) == (0.0, 0.0, 2, 1.0)
    one = paired([2.0], [1.0])
    assert (one.mean, one.sem, one.wins, one.p) == (1.0, 0.0, 1, 1.0)
    for a, b in (([1.0], [1.0, 2.0]), ([], []), ([[1.0]], [[1.0]])):
        with pytest.raises(ValueError):
            paired(a, b)


def test_prefix_scores_pick_as_select_final_does(dose_task):
    ctx = dose_task.sample_context(np.random.default_rng(0), "target", id="t")
    memory = TrajectoryMemory(dose_task.space, budget=4)
    doses, raws = [10.0, 50.0, 30.0, 70.0], [1.0, 3.0, 2.0, 3.0]
    memory.append_batch(np.array(doses)[:, None], raws, raws, np.zeros(4, dtype=np.int64))
    got = prefix_scores(dose_task, SimpleNamespace(memory=memory), ctx, [1, 2, 3, 4])
    # the best raw row of each prefix, the earlier one on the tie at 3.0
    want = [oracle_eval(dose_task, Design((dose,)), ctx) for dose in (10.0, 50.0, 50.0, 50.0)]
    assert got.tolist() == want
    for k in (0, 5):
        with pytest.raises(ValueError):
            prefix_scores(dose_task, SimpleNamespace(memory=memory), ctx, [k])


@pytest.mark.parametrize("method", ["leon", "random-search"])
def test_the_full_prefix_is_the_run_score(dose_task, method):
    ctx = dose_task.sample_context(np.random.default_rng(1), "target", id="t")
    result = run_method(dose_task, RunConfig(method=method, hp=Hyperparams(budget=128)),
                        seed=2, ctx=ctx)
    assert prefix_scores(dose_task, result, ctx, [128])[0] == result.oracle_score
