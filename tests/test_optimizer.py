import gc
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import leon.optimizer
from leon.core import (
    BooleanDim,
    Context,
    ContinuousDim,
    Design,
    DesignSpace,
    Hyperparams,
    NumericError,
    TrajectoryMemory,
    decode_design,
)
from leon.critic import SourcePool
from leon.optimizer import (
    BASELINES,
    BudgetExceededError,
    MeteredSurrogate,
    RunConfig,
    evaluate_cohort,
    make_engine,
    run_baseline,
    run_leon,
    run_method,
    select_final,
)
from leon.proposal import ChatApiEngine, StaticFactsSource, random_design
from leon.tasks import AnalyticShiftSurrogate, make_dose_task, make_regimen_task, oracle_eval

HP_SMALL = Hyperparams(budget=64, batch_size=32)
NO_SERVER = "http://127.0.0.1:1"  # a local port that refuses connections


@pytest.fixture
def oracle_ids(monkeypatch):
    """The patient id of every ground-truth oracle call a run makes."""
    ids = []
    real = leon.optimizer.oracle_eval
    monkeypatch.setattr(leon.optimizer, "oracle_eval",
                        lambda task, design, ctx: ids.append(ctx.id) or real(task, design, ctx))
    return ids


LINE = DesignSpace((ContinuousDim("Dose", 0.0, 100.0),))


def _mem(rows):
    """One append, one step, per (dose, raw, score) row."""
    mem = TrajectoryMemory(LINE, budget=len(rows))
    for dose, raw, score in rows:
        mem.append_batch(np.array([[dose]]), [raw], [score], [0])
    return mem


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_select_single_entry():
    mem = _mem([(10.0, 1.0, 0.5)])
    assert select_final(mem).values == (10.0,)


def test_select_argmax_raw():
    # the stored scores rank the rows the other way round: they are ignored
    mem = _mem([(1.0, 0.1, 0.9), (2.0, 0.9, 0.1), (3.0, 0.3, 0.5)])
    assert select_final(mem).values == (2.0,)


def test_select_tie_breaks_by_raw_then_step():
    mem = _mem([(1.0, 1.0, 0.5), (2.0, 2.0, 0.5)])
    assert select_final(mem).values == (2.0,)
    mem = _mem([(1.0, 2.0, 0.5), (2.0, 2.0, 0.5)])
    assert select_final(mem).values == (1.0,)  # earliest step on a full tie


def test_select_empty_memory():
    with pytest.raises(ValueError):
        select_final(TrajectoryMemory(LINE, budget=1))


def _select_by_loop(entries):
    """The rule as a loop over entries, the reference for `select_final`."""
    best = None
    for e in entries:
        if best is None or e.raw_value > best.raw_value:  # strict: first occurrence wins ties
            best = e
    return best.design


TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])


@given(st.lists(st.tuples(TIED, TIED), min_size=1, max_size=24))
def test_select_matches_the_loop_on_exact_ties(rows):
    mem = _mem([(float(i), raw, score) for i, (raw, score) in enumerate(rows)])  # own doses
    assert select_final(mem) == _select_by_loop(mem.entries)


@pytest.mark.parametrize("make_task", [make_dose_task, make_regimen_task])
@pytest.mark.parametrize("method", ["leon", *BASELINES])
def test_every_method_returns_its_best_raw_row(make_task, method):
    # at seed 8 a leon run's best stored score is not its best raw value, on both tasks
    res = run_method(make_task(0), RunConfig(method=method, hp=HP_SMALL), seed=8)
    rows = res.memory.view()
    assert len(rows) == HP_SMALL.budget
    assert res.final_design == rows.design(int(np.argmax(rows.raw)))


# ---------------------------------------------------------------------------
# metering
# ---------------------------------------------------------------------------


class _Flat:
    """Scores every design 1.0 and records the size of each batch it scores."""

    def __init__(self):
        self.batches = []

    def value(self, designs, ctx):
        self.batches.append(len(designs))
        return np.ones(len(designs))


def test_metered_surrogate_enforces_budget():
    metered = MeteredSurrogate(_Flat(), budget=3, ctx=Context((0.0,), id="c"))
    for _ in range(3):
        metered.value(np.ones((1, 1)))
    with pytest.raises(BudgetExceededError):
        metered.value(np.ones((1, 1)))
    assert metered.calls == 3


def test_metered_batch_charges_its_length_and_an_overflow_charges_nothing():
    inner = _Flat()
    metered = MeteredSurrogate(inner, budget=5, ctx=Context((0.0,), id="c"))
    assert metered.value(np.ones((3, 1))).shape == (3,)
    assert (metered.calls, metered.remaining) == (3, 2)
    with pytest.raises(BudgetExceededError):
        metered.value(np.ones((3, 1)))
    assert metered.calls == 3
    assert inner.batches == [3]  # the overflowing batch never reached the surrogate
    metered.value(np.ones((2, 1)))
    assert (metered.calls, inner.batches) == (5, [3, 2])


def test_charge_past_the_budget_raises_and_charges_nothing():
    """A reused value is charged through the one budget check: a revisit
    past the budget raises and leaves `calls` as it was."""
    inner = _Flat()
    metered = MeteredSurrogate(inner, budget=3, ctx=Context((0.0,), id="c"))
    metered.value(np.ones((2, 1)))
    metered.charge(1)  # a revisit of a scored row
    with pytest.raises(BudgetExceededError):
        metered.charge(1)
    assert (metered.calls, metered.remaining, inner.batches) == (3, 0, [2])
    with pytest.raises(BudgetExceededError):
        metered.value(np.ones((1, 1)))
    assert metered.calls == 3


class _Spoiled:
    """The analytic-shift surrogate with its values spoiled: NaN on rows 0,
    7, 14, ... of every batch, or returned as an `(n, 1)` column."""

    def __init__(self, task, spoil):
        self.inner, self.spoil = AnalyticShiftSurrogate(task), spoil

    def value(self, designs, ctx):
        f = self.inner.value(designs, ctx)
        if self.spoil == "column":
            return f[:, None]
        f[::7] = np.nan
        return f


def _run_on(task, cfg, surrogate):
    if cfg.method == "leon":
        return run_leon(task, cfg, seed=0, surrogate=surrogate)
    return run_baseline(task, cfg.method, cfg, seed=0, surrogate=surrogate)


SPOILED_RUNS = [("leon", "kmeans"), ("leon", "score"),
                *((baseline, "kmeans") for baseline in BASELINES)]


@pytest.mark.parametrize("method, partition", SPOILED_RUNS)
def test_a_nan_surrogate_value_fails_the_run(dose_task, method, partition):
    """A NaN value used to reach the memory unchecked: each baseline
    finished on a NaN row, the first one `np.argmax` finds, and leon failed
    later in its engine. The `score` partition's unmetered source-pool call
    is checked too."""
    cfg = RunConfig(method=method, partition=partition,
                    hp=Hyperparams(budget=128, batch_size=32))
    with pytest.raises(NumericError, match=r"non-finite values for \d+ rows"):
        _run_on(dose_task, cfg, _Spoiled(dose_task, "nan"))


@pytest.mark.parametrize("method, partition", SPOILED_RUNS)
def test_a_surrogate_of_the_wrong_shape_fails_where_it_is_called(dose_task, method, partition):
    """An `(n, 1)` column used to fail far from the surrogate, in
    `class_optima` or in the memory's append."""
    cfg = RunConfig(method=method, partition=partition,
                    hp=Hyperparams(budget=128, batch_size=32))
    with pytest.raises(ValueError, match=r"surrogate returned shape \((\d+), 1\) for \1 rows"):
        _run_on(dose_task, cfg, _Spoiled(dose_task, "column"))


def test_run_baseline_runs_only_the_baseline_its_config_names(dose_task):
    for cfg in (RunConfig(hp=HP_SMALL), RunConfig(method="simulated-annealing", hp=HP_SMALL)):
        with pytest.raises(ValueError, match="'random-search' is not cfg.method"):
            run_baseline(dose_task, "random-search", cfg, seed=0)


@pytest.fixture
def scored_batches(monkeypatch):
    """The size of every batch `AnalyticShiftSurrogate.value` scores."""
    sizes = []
    real = AnalyticShiftSurrogate.value
    monkeypatch.setattr(AnalyticShiftSurrogate, "value",
                        lambda self, designs, ctx: sizes.append(len(designs))
                        or real(self, designs, ctx))
    return sizes


def test_default_dose_run_scores_one_batch_per_step(dose_task, scored_batches):
    result = run_leon(dose_task, RunConfig(), seed=0)
    assert scored_batches == [32] * 64
    assert result.surrogate_calls == 2048


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def test_single_iteration_structure(dose_task, oracle_ids):
    hp = Hyperparams(budget=32, batch_size=32)
    cfg = RunConfig(method="leon", hp=hp)
    result = run_leon(dose_task, cfg, seed=5)
    assert len(result.memory) == 32
    assert len(result.lambda_trace) == 1
    assert result.surrogate_calls == 32
    assert oracle_ids == [result.patient_id]


def test_lambda_trace_starts_at_lambda0(dose_task):
    cfg = RunConfig(method="leon", hp=HP_SMALL)
    result = run_leon(dose_task, cfg, seed=5)
    assert result.lambda_trace[0] == 0.0

    cfg2 = RunConfig(method="leon", hp=Hyperparams(budget=64, batch_size=32, lambda0=0.25))
    result2 = run_leon(dose_task, cfg2, seed=5)
    assert result2.lambda_trace[0] == 0.25


def test_run_is_deterministic(dose_task):
    cfg = RunConfig(method="leon", engine="boltzmann-memory",
                    hp=Hyperparams(budget=256, batch_size=32))
    a = run_leon(dose_task, cfg, seed=7)
    b = run_leon(dose_task, cfg, seed=7)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    assert [e.design for e in a.memory.entries] == [e.design for e in b.memory.entries]


def test_memory_scores_are_mu_times_raw(dose_task):
    cfg = RunConfig(method="leon", hp=Hyperparams(budget=96, batch_size=32))
    result = run_leon(dose_task, cfg, seed=3)
    mu_by_step = dict(enumerate(result.mu_trace, start=1))
    for e in result.memory.entries:
        assert e.score == mu_by_step[e.step] * e.raw_value
    # a mock engine does not reflect: one empty reflection per step
    assert result.reflections == ["", "", ""]


def test_lambda_nonnegative_and_w1_finite(dose_task):
    cfg = RunConfig(method="leon", hp=Hyperparams(budget=128, batch_size=32))
    result = run_leon(dose_task, cfg, seed=9)
    assert all(lam >= 0.0 for lam in result.lambda_trace)
    assert all(np.isfinite(w) for w in result.w1_trace)


@pytest.mark.parametrize("task_name", ["dose", "regimen"])
@pytest.mark.parametrize("engine", ["random", "boltzmann-memory", "hill-climb"])
@pytest.mark.parametrize("partition", ["kmeans", "random", "score"])
def test_lambda_never_rises_when_w0_is_the_diameter(task_name, engine, partition, request):
    """With w0 = 1 the W1 bound cannot bind: the critic is 1-Lipschitz in a
    cost of at most 1 on encoded rows, so the dual gradient is at least
    w0 - 1 = 0, and even a large step size never raises lambda."""
    task = request.getfixturevalue(f"{task_name}_task")
    for lambda0 in (0.7, 0.0):
        hp = Hyperparams(budget=128, w0=1.0, eta_lambda=10.0, lambda0=lambda0)
        cfg = RunConfig(engine=engine, partition=partition, hp=hp)
        trace = run_leon(task, cfg, seed=0).lambda_trace
        assert trace[0] == lambda0 and trace == sorted(trace, reverse=True), trace


def test_budget_not_divisible_truncates_last_batch(dose_task):
    cfg = RunConfig(method="leon", hp=Hyperparams(budget=80, batch_size=32))
    result = run_leon(dose_task, cfg, seed=2)
    assert result.surrogate_calls == 80
    assert len(result.memory) == 80
    steps = [e.step for e in result.memory.entries]
    assert steps.count(3) == 16  # final partial batch


def test_default_run_encodes_each_design_about_once(dose_task, monkeypatch):
    """Each step encodes its batch once, in `propose`, and reuses it for the
    critic; the source pool is encoded once per run. The engine's
    parent-spread estimate scales memory rows, which were checked when
    proposed, and encodes none."""
    import leon.core

    rows = {}

    def counting(module):
        def encode_batch(space, designs):
            rows[module] = rows.get(module, 0) + len(designs)
            return leon.core.encode_batch(space, designs)
        return encode_batch

    for module in ("proposal", "critic", "tasks"):
        monkeypatch.setattr(getattr(leon, module), "encode_batch", counting(module))
    hp = Hyperparams()
    result = run_leon(dose_task, RunConfig(method="leon", hp=hp), seed=0)
    assert len(result.memory) == hp.budget
    assert rows == {"proposal": hp.budget, "critic": 128}


def _count_critic_work(monkeypatch):
    """Record the shapes of every cost matrix and Sinkhorn solve the critic
    builds, and count single-design validations."""
    import leon.core
    import leon.critic

    calls = {"cost": [], "solve": [], "validate": 0}
    real_cost, real_solve = leon.critic.cost_matrix, leon.critic._sinkhorn
    real_validate = leon.core.DesignSpace.validate

    def cost(X, Y, is_bool):
        calls["cost"].append((len(X), len(Y)))
        return real_cost(X, Y, is_bool)

    def solve(C, f, eps):
        calls["solve"].append(C.shape)
        return real_solve(C, f, eps)

    def validate(*args):
        calls["validate"] += 1
        return real_validate(*args)

    monkeypatch.setattr(leon.critic, "cost_matrix", cost)
    monkeypatch.setattr(leon.critic, "_sinkhorn", solve)
    monkeypatch.setattr(leon.core.DesignSpace, "validate", validate)
    return calls


def test_default_run_critic_and_validation_counts(dose_task, monkeypatch):
    """A step builds one pool x batch cost matrix, which gives one Sinkhorn
    solve, the refit critic's values and the values the batch is scored
    with; a run adds one of the pool's own costs. Designs are checked by
    `encode_batch`, so only the harness's oracle call validates a single
    design."""
    calls = _count_critic_work(monkeypatch)
    run_leon(dose_task, RunConfig(), 0)
    assert calls == {"cost": [(128, 128)] + [(128, 32)] * 64, "solve": [(128, 32)] * 64,
                     "validate": 1}


def test_score_partition_builds_no_cost_for_the_pool_raw_values(regimen_task, monkeypatch):
    """The score partition cuts its bins around the surrogate's values of
    the pool alone, as a fresh critic reads +0.0 there: no cost matrix
    beyond the pool's own and one per step."""
    calls = _count_critic_work(monkeypatch)
    cfg = RunConfig(partition="score", hp=Hyperparams(budget=128, batch_size=32))
    run_leon(regimen_task, cfg, 0)
    assert calls["cost"] == [(128, 128)] + [(128, 32)] * 4
    assert calls["solve"] == [(128, 32)] * 4


def test_default_run_takes_no_gradient_on_the_last_pass(dose_task, monkeypatch):
    """The critic takes no gradient, on the last pass or any other: a default
    dose run calls none of the net kernels that `leon.critic` still imports."""
    import leon.critic

    for name in ("net_gradient", "sgd_step", "net_forward_batch"):
        monkeypatch.setattr(leon.critic, name, lambda *a, name=name: pytest.fail(name))
    result = run_leon(dose_task, RunConfig(), 0)
    assert len(result.w1_trace) == 64


def test_default_run_builds_no_memory_entries(dose_task, monkeypatch):
    """Engines and final selection read memory columns; `MemoryEntry` rows
    are built only for the chat prompt and for readers of `entries`."""
    import leon.core

    built = []
    real = leon.core.MemoryEntry
    monkeypatch.setattr(leon.core, "MemoryEntry", lambda *a: built.append(a) or real(*a))
    result = run_leon(dose_task, RunConfig(), 0)
    assert len(result.memory) == Hyperparams().budget
    assert built == []


def test_finished_run_memory_is_small(dose_task, regimen_task):
    """A finished default run's memory holds its columns, not an object per
    entry: at most 64 bytes per dose entry. The regimen's
    sixteen boolean values take one byte each, so its 48 bytes of columns
    fit in 80 (as float64 they took 160)."""
    for task, bound in ((dose_task, 64), (regimen_task, 80)):
        tracemalloc.start()
        try:
            result = run_leon(task, RunConfig(), 0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            n = len(result.memory)
            result.memory = None
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n == Hyperparams().budget
        assert 0 < retained <= bound * n


@pytest.mark.parametrize("method", ["leon", *BASELINES])
@pytest.mark.parametrize("task_name", ["dose", "regimen"])
def test_default_run_builds_one_design(task_name, method, monkeypatch):
    """Batches stay value arrays from the engine or baseline to the memory:
    a default run builds one `Design`, its final design."""
    built = []
    real = Design.__post_init__
    monkeypatch.setattr(Design, "__post_init__", lambda self: built.append(self) or real(self))
    task = make_dose_task(0) if task_name == "dose" else make_regimen_task(0)
    partition = "kmeans" if task_name == "dose" else "score"
    result = run_method(task, RunConfig(method=method, partition=partition), seed=0)
    assert len(result.memory) == Hyperparams().budget
    assert len(built) == 1 and built[0] is result.final_design


def test_default_run_renders_no_text(dose_task, monkeypatch):
    """The default k-means partition clusters design encodings: a run
    renders no design text, so it embeds none."""
    import leon.equivalence

    calls = []
    monkeypatch.setattr(leon.equivalence, "render_text", lambda *a: calls.append(a))
    result = run_leon(dose_task, RunConfig(method="leon", hp=HP_SMALL), seed=0)
    assert len(result.memory) == HP_SMALL.budget
    assert calls == []


def test_partition_variants_run(dose_task):
    for variant in ("kmeans", "random", "score"):
        cfg = RunConfig(method="leon", hp=HP_SMALL, partition=variant)
        result = run_leon(dose_task, cfg, seed=1)
        assert len(result.memory) == 64


def test_score_partition_scores_source_pool_outside_budget(dose_task, scored_batches):
    """The score partition cuts its bins around the source pool's raw values,
    which it reads from the surrogate past the meter: a run scores budget plus
    pool-size designs in one call per step plus one, and only the budget is
    counted."""
    cfg = RunConfig(method="leon", hp=HP_SMALL, partition="score")
    pool = SourcePool(dose_task.space, dose_task.source_designs(np.random.default_rng(0), 40))
    result = run_leon(dose_task, cfg, seed=1, source_pool=pool)
    assert result.surrogate_calls == HP_SMALL.budget
    assert sum(scored_batches) == HP_SMALL.budget + 40
    assert len(scored_batches) == HP_SMALL.budget // HP_SMALL.batch_size + 1


@pytest.mark.parametrize("task_name, pool_size", [("dose", 1), ("regimen", 8)])
def test_small_source_pool_runs_end_to_end(request, task_name, pool_size):
    """A source pool smaller than k-means' kmax shrinks the elbow's range,
    with a warning (to k = 1 on a 1-row pool), and the run still spends its
    whole budget and scores a finite final design."""
    task = request.getfixturevalue(f"{task_name}_task")
    pool = SourcePool(task.space, task.source_designs(np.random.default_rng(0), pool_size))
    with pytest.warns(UserWarning, match="shrinking kmax"):
        result = run_leon(task, RunConfig(method="leon", hp=HP_SMALL), seed=1, source_pool=pool)
    assert result.surrogate_calls == len(result.memory) == HP_SMALL.budget
    assert np.isfinite(result.oracle_score)


def test_all_engines_run(dose_task, oracle_ids):
    for engine in ("random", "boltzmann-memory", "hill-climb"):
        oracle_ids.clear()
        cfg = RunConfig(method="leon", engine=engine, hp=HP_SMALL)
        result = run_leon(dose_task, cfg, seed=1)
        assert len(result.memory) == HP_SMALL.budget
        assert oracle_ids == [result.patient_id]


def test_run_result_json_schema(dose_task):
    cfg = RunConfig(method="leon", hp=HP_SMALL)
    payload = run_leon(dose_task, cfg, seed=1).to_json()
    assert set(payload) == {"task", "method", "seed", "patient_id", "final_design",
                            "oracle_score", "lambda_trace", "mu_trace", "w1_trace",
                            "warnings"}
    json.dumps(payload)  # serializable


def test_regimen_task_runs(regimen_task):
    cfg = RunConfig(method="leon", hp=HP_SMALL)
    result = run_leon(regimen_task, cfg, seed=4)
    assert len(result.final_design.values) == 16


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_unknown_baseline_rejected(dose_task):
    with pytest.raises(ValueError):
        run_baseline(dose_task, "cma-es", RunConfig(hp=HP_SMALL), seed=0)


def test_random_search_finds_surrogate_argmax(dose_task):
    hp = Hyperparams(budget=2048, batch_size=32)
    cfg = RunConfig(method="random-search", hp=hp)
    rng = np.random.default_rng(0)
    ctx = dose_task.sample_context(rng, "target", id="t")
    result = run_baseline(dose_task, "random-search", cfg, seed=11, ctx=ctx)
    sur = AnalyticShiftSurrogate(dose_task, beta=cfg.beta, radius=cfg.radius)
    grid = np.linspace(0, 100, 100001)
    vals = sur.value(grid[:, None], ctx)
    x_star = grid[int(np.argmax(vals))]
    assert abs(result.final_design.values[0] - x_star) < 2.0
    assert result.surrogate_calls == 2048


def test_simulated_annealing_metered_and_late_greedy(dose_task, oracle_ids):
    hp = Hyperparams(budget=512, batch_size=32)
    cfg = RunConfig(method="simulated-annealing", hp=hp)
    result = run_baseline(dose_task, "simulated-annealing", cfg, seed=3)
    assert result.surrogate_calls == 512
    assert oracle_ids == [result.patient_id]
    # final design is the best-by-surrogate over everything visited
    best = max(e.raw_value for e in result.memory.entries)
    assert any(e.design == result.final_design and e.raw_value == best
               for e in result.memory.entries)


class _NeverBelow:
    """A generator whose `random()` is 1.0, which no acceptance probability
    exceeds: annealing then takes only moves that do not worsen."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self):
        return 1.0

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_sa_zero_temperature_accepts_only_improvements(regimen_task):
    """With every acceptance draw at 1.0, as at zero temperature, annealing
    takes only moves that do not worsen: replaying the logged chain with
    "accept iff the value does not fall" puts every move at most one dim
    away from the replayed current row, on regimen and on a mixed space,
    and the chains do propose worsening moves."""
    cfg = RunConfig(method="simulated-annealing", hp=Hyperparams(budget=600, batch_size=32))
    runs = []
    for seed in range(3):
        metered, memory = leon.optimizer._start(regimen_task, cfg, seed, None, None)
        runs.append((regimen_task.space, metered, memory))
        metered = MeteredSurrogate(_Bowl(MIXED, [1.2, 0.0, 3.1]), 600, Context((0.0,), id="c"))
        runs.append((MIXED, metered, TrajectoryMemory(MIXED, 600)))
    for seed, (space, metered, memory) in enumerate(runs):
        leon.optimizer._simulated_annealing(space, metered, _NeverBelow(seed), memory)
        rows = memory.view()
        best = int(np.argmax(rows.raw[:64]))
        current, cur_val, worse = rows.values[best], rows.raw[best], 0
        for move, value in zip(rows.values[64:], rows.raw[64:]):
            assert np.count_nonzero(move != current) <= 1
            if value >= cur_val:
                current, cur_val = move, value
            else:
                worse += 1
        assert worse > 100


def test_surrogate_greedy_converges_on_concave_1d(dose_task):
    hp = Hyperparams(budget=2048, batch_size=32)
    cfg = RunConfig(method="surrogate-greedy", hp=hp, mixture_w=1.0)  # pure oracle: concave
    rng = np.random.default_rng(1)
    ctx = dose_task.sample_context(rng, "target", id="t")
    result = run_baseline(dose_task, "surrogate-greedy", cfg, seed=5, ctx=ctx)
    x_star = dose_task.optimum_location(ctx)
    # within 1e-2 in encoded units of the unique stationary point
    assert abs(result.final_design.values[0] - x_star) / 100.0 < 1e-2
    assert result.surrogate_calls <= 2048


def test_surrogate_greedy_discrete_flips(regimen_task):
    hp = Hyperparams(budget=512, batch_size=32)
    cfg = RunConfig(method="surrogate-greedy", hp=hp)
    result = run_baseline(regimen_task, "surrogate-greedy", cfg, seed=7)
    assert result.surrogate_calls <= 512
    assert len(result.final_design.values) == 16


def test_surrogate_greedy_rejects_a_mixed_space_before_any_charge():
    """Greedy ascent flips booleans or follows the gradient of continuous
    dims, never both: a mixed space raises with nothing charged or logged."""
    metered = MeteredSurrogate(_Bowl(MIXED, [1.2, 0.0, 3.1]), 64, Context((0.0,), id="c"))
    memory = TrajectoryMemory(MIXED, 64)
    with pytest.raises(ValueError, match="every dim boolean or every dim continuous"):
        leon.optimizer._surrogate_greedy(MIXED, metered, np.random.default_rng(0), memory)
    assert metered.calls == len(memory) == 0


def _single_dim_move(space, row, rng):
    """A copy of a value row with one random dim moved: a continuous dim
    jittered by 0.1 of its width and clamped, a boolean flipped."""
    i = int(rng.integers(len(space.dims)))
    cand = row.copy()
    if space.is_bool[i]:
        cand[i] = 1.0 - cand[i]
    else:
        lo, hi = space.lo[i], space.hi[i]
        cand[i] = min(max(float(cand[i]) + rng.normal(0.0, 0.1 * (hi - lo)), lo), hi)
    return cand


def _move_by_move_annealing(space, metered, rng, memory):
    """Simulated annealing with each move logged as soon as it is scored,
    in its own append."""
    probes = leon.optimizer.random_design(space, rng, min(64, metered.remaining))
    vals = leon.optimizer._score(metered, memory, probes)
    t0 = float(np.std(vals)) or 1.0
    n = metered.remaining
    if n == 0:
        return
    alpha = 0.01 ** (1.0 / n)
    best_i = int(np.argmax(vals))
    current, cur_val = probes[best_i], vals[best_i]
    temp = t0
    for _ in range(n):
        cand = _single_dim_move(space, current, rng)
        cand_val = leon.optimizer._score(metered, memory, cand[None])[0]
        delta = cand_val - cur_val
        temp *= alpha
        if delta >= 0 or rng.random() < np.exp(delta / max(temp, 1e-300)):
            current, cur_val = cand, cand_val


class _Bowl:
    """A smooth surrogate on a mixed space: a concave bowl in the continuous
    dims, a bonus for each set boolean, and a ripple in every dim."""

    def __init__(self, space, center):
        self.is_bool, self.center = space.is_bool, np.asarray(center, dtype=float)

    def value(self, V, ctx):
        cont = ~self.is_bool
        return (-np.square(V[:, cont] - self.center[cont]).sum(axis=1)
                + 0.3 * V[:, self.is_bool].sum(axis=1) + np.sin(3.0 * V).sum(axis=1))


MIXED = DesignSpace((ContinuousDim("x", -1.0, 2.0), BooleanDim("b"), ContinuousDim("y", 0.0, 5.0)))


def _same_run(got_memory, got_calls, want_memory, want_calls):
    got, want = got_memory.view(), want_memory.view()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.raw.tobytes() == want.raw.tobytes()
    # the 64 probes are step 1 and the chain step 2; the reference logs each move as a step
    moves = len(want) - 64
    assert got.step.tolist() == [1] * 64 + [2] * moves
    assert want.step.tolist() == [1] * 64 + list(range(2, moves + 2))
    assert select_final(got_memory) == select_final(want_memory)
    assert got_calls == want_calls == len(want)


@pytest.mark.parametrize("budget", [65, 80, 333, 2048])
def test_annealing_matches_the_move_by_move_chain(dose_task, regimen_task, budget):
    """Logging the chain in one append changes no bit of what annealing
    scores, logs or picks, on dose, regimen and a mixed space."""
    cfg = RunConfig(method="simulated-annealing", hp=Hyperparams(budget=budget, batch_size=32))
    for task in (dose_task, regimen_task):
        for seed in range(5):
            got = run_baseline(task, "simulated-annealing", cfg, seed)
            metered, memory = leon.optimizer._start(task, cfg, seed, None, None)
            _move_by_move_annealing(task.space, metered, np.random.default_rng([seed, 40]),
                                    memory)
            want = leon.optimizer._finish(task, "simulated-annealing", seed, metered, memory)
            _same_run(got.memory, got.surrogate_calls, want.memory, want.surrogate_calls)
            assert got.oracle_score == want.oracle_score
    ctx = Context((0.0,), id="c")
    for seed in range(5):
        runs = []
        for anneal in (leon.optimizer._simulated_annealing, _move_by_move_annealing):
            metered = MeteredSurrogate(_Bowl(MIXED, [1.2, 0.0, 3.1]), budget, ctx)
            memory = TrajectoryMemory(MIXED, budget)
            anneal(MIXED, metered, np.random.default_rng([seed, 40]), memory)
            runs += [memory, metered.calls]
        _same_run(*runs)


class _Recorded:
    """An inner surrogate that records the value rows of every call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def value(self, V, ctx):
        self.calls.append(np.array(V))
        return self.inner.value(V, ctx)


def _recorded_annealing(space, inner, budget, seed, ctx):
    recorded = _Recorded(inner)
    metered = MeteredSurrogate(recorded, budget, ctx)
    memory = TrajectoryMemory(space, budget)
    leon.optimizer._simulated_annealing(space, metered, np.random.default_rng([seed, 40]), memory)
    return recorded.calls, metered, memory


@pytest.mark.parametrize("budget", [65, 80, 333, 2048])
def test_annealing_scores_each_distinct_move_once(dose_task, regimen_task, budget):
    """The surrogate runs once on the 64 probes and once on each distinct
    row a move reaches, alone, however often the chain returns to it; every
    move is still charged, so `surrogate_calls` is the budget on dose,
    regimen and a mixed space."""
    cfg = RunConfig(method="simulated-annealing", hp=Hyperparams(budget=budget, batch_size=32))
    cases = []
    for task in (dose_task, regimen_task):
        for seed in range(3):
            metered, _ = leon.optimizer._start(task, cfg, seed, None, None)
            cases.append((task.space, metered.inner, seed, metered.ctx))
            assert run_baseline(task, "simulated-annealing", cfg, seed).surrogate_calls == budget
    for seed in range(3):
        cases.append((MIXED, _Bowl(MIXED, [1.2, 0.0, 3.1]), seed, Context((0.0,), id="c")))
    revisits = 0
    for space, inner, seed, ctx in cases:
        calls, metered, memory = _recorded_annealing(space, inner, budget, seed, ctx)
        moves = memory.view().values[64:].astype(float)  # all-boolean memories hold bools
        distinct = list(dict.fromkeys(row.tobytes() for row in moves))
        assert len(calls[0]) == 64 and all(len(V) == 1 for V in calls[1:])
        assert [V[0].tobytes() for V in calls[1:]] == distinct
        assert metered.calls == len(memory) == budget
        revisits += len(moves) - len(distinct)
    assert revisits > 0 or budget == 65


def test_annealing_scores_a_move_onto_a_probe_alone():
    """On two boolean dims the 64 probes hold all four rows, so every move
    lands on a probe row; each distinct one is still scored alone, once."""
    space = DesignSpace((BooleanDim("a"), BooleanDim("b")))
    calls, metered, memory = _recorded_annealing(space, _Bowl(space, [0.0, 0.0]), 200, 0,
                                                 Context((0.0,), id="c"))
    probes, moves = np.split(memory.view().values.astype(float), [64])
    assert {row.tobytes() for row in probes} == {row.tobytes() for row in moves}
    assert len(calls) == 1 + len({row.tobytes() for row in moves})
    assert all(len(V) == 1 for V in calls[1:]) and metered.calls == 200


def _restart_by_restart_greedy(space, metered, rng, memory):
    """Continuous surrogate-greedy with its restarts run one after another:
    each restart's whole ascent, one call of 2d probes per step; then the
    chains' ends and uniform designs for the rest."""
    opt = leon.optimizer
    restarts, lr, fd_step = opt.GREEDY_RESTARTS, opt.GREEDY_LR, opt.GREEDY_FD_STEP
    share = metered.budget // restarts
    d = len(space.dims)
    j = np.arange(d)
    ends = []
    for _ in range(restarts):
        allotment = min(share, metered.remaining)
        u = rng.uniform(0.0, 1.0, size=d)
        used, k = 0, 1
        while used + 2 * d <= allotment and metered.remaining >= 2 * d:
            U = np.repeat(u[None], 2 * d, axis=0)
            U[2 * j, j] = np.minimum(u + fd_step, 1.0)
            U[2 * j + 1, j] = np.maximum(u - fd_step, 0.0)
            vals = leon.optimizer._score(metered, memory, decode_design(space, U))
            denoms = U[2 * j, j] - U[2 * j + 1, j]
            grad = np.divide(vals[2 * j] - vals[2 * j + 1], denoms, out=np.zeros(d),
                             where=denoms > 0)
            used += 2 * d
            norm = np.linalg.norm(grad)
            if norm > 0:
                u = np.clip(u + (lr / np.sqrt(k)) * grad / norm, 0.0, 1.0)
            k += 1
        ends.append(u)
    # what no whole step could use: the chains' unscored ends, then uniform designs
    if metered.remaining > 0:
        ends = np.array(ends)[:metered.remaining]
        leon.optimizer._score(metered, memory, decode_design(space, ends))
    if metered.remaining > 0:
        leon.optimizer._score(metered, memory, random_design(space, rng, metered.remaining))


def _sorted_rows(memory):
    rows = memory.view()
    table = np.column_stack([rows.values, rows.raw])
    return table[np.lexsort(table.T[::-1])]


def test_side_by_side_greedy_matches_restart_by_restart(dose_task):
    """Running the four continuous chains side by side changes only the
    order of the memory rows: the same designs are scored and the same
    final design is picked."""
    rng = np.random.default_rng([11, 0])
    contexts = [dose_task.sample_context(rng, "target", id=f"p{i:03d}") for i in range(20)]
    for budget in (80, 333, 2048):
        for mixture_w in (None, 1.0):
            cfg = RunConfig(method="surrogate-greedy", mixture_w=mixture_w,
                            hp=Hyperparams(budget=budget, batch_size=32))
            for i, ctx in enumerate(contexts):
                seed = leon.optimizer.derive_seed(11, i)
                got = run_baseline(dose_task, "surrogate-greedy", cfg, seed, ctx=ctx)
                metered, memory = leon.optimizer._start(dose_task, cfg, seed, ctx, None)
                _restart_by_restart_greedy(dose_task.space, metered,
                                           np.random.default_rng([seed, 40]), memory)
                want = leon.optimizer._finish(dose_task, "surrogate-greedy", seed, metered, memory)
                assert got.final_design == want.final_design
                assert got.oracle_score == want.oracle_score
                assert got.surrogate_calls == want.surrogate_calls
                assert np.array_equal(_sorted_rows(got.memory), _sorted_rows(want.memory))


def test_side_by_side_greedy_matches_restart_by_restart_on_three_dims():
    """On a 3-dim continuous space with a smooth surrogate the side-by-side
    chains score the designs of the chains run one after another."""
    space = DesignSpace(tuple(ContinuousDim(n, lo, hi)
                              for n, lo, hi in (("x", -1.0, 2.0), ("y", 0.0, 5.0), ("z", 0.0, 1.0))))
    ctx = Context((0.0,), id="c")
    for budget in (80, 333, 2048):
        for seed in range(5):
            sur = _Bowl(space, np.random.default_rng(seed).uniform(0.0, 1.0, 3))
            runs = []
            for greedy in (leon.optimizer._surrogate_greedy, _restart_by_restart_greedy):
                metered, memory = MeteredSurrogate(sur, budget, ctx), TrajectoryMemory(space, budget)
                greedy(space, metered, np.random.default_rng([seed, 40]), memory)
                runs.append((select_final(memory), metered.calls, _sorted_rows(memory)))
            (got_final, got_calls, got_rows), (want_final, want_calls, want_rows) = runs
            assert got_final == want_final
            assert got_calls == want_calls
            assert np.array_equal(got_rows, want_rows)


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_a_row_dot_is_the_one_dim_norm(d):
    """Greedy's per-row norm `sqrt(vecdot(g, g))` is each row's 1-D
    `np.linalg.norm`, bit for bit."""
    g = np.random.default_rng(d).normal(size=(64, d)) * np.logspace(-3, 3, 64)[:, None]
    assert np.sqrt(np.vecdot(g, g)).tolist() == [np.linalg.norm(row) for row in g]


@pytest.mark.parametrize("make_task", [make_dose_task, make_regimen_task])
def test_baselines_run_on_every_small_budget(make_task):
    """Every baseline spends its whole budget, whatever it is a multiple of."""
    task = make_task(0)
    for budget in (*range(2, 10), 33, 65, 100, 127, 2047):
        hp = Hyperparams(budget=budget, batch_size=2)
        for variant in BASELINES:
            result = run_baseline(task, variant, RunConfig(method=variant, hp=hp), seed=0)
            assert np.isfinite(result.oracle_score)
            assert result.surrogate_calls == len(result.memory) == budget, (variant, budget)


def test_greedy_scores_its_start_when_no_step_is_affordable():
    """Below the 6 probes of one step on 3 dims, greedy scores its one start
    and fills the rest of the budget with uniform designs."""
    space = DesignSpace(tuple(ContinuousDim(f"x{i}", 0.0, 1.0) for i in range(3)))
    for budget, batches in ((2, [1, 1]), (5, [1, 4]), (6, [6]), (12, [12])):
        metered = MeteredSurrogate(_Flat(), budget, ctx=Context((0.0,), id="c"))
        memory = TrajectoryMemory(space, budget)
        rng = np.random.default_rng(0)
        leon.optimizer._surrogate_greedy(space, metered, rng, memory)
        assert metered.calls == len(memory) == budget
        assert np.bincount(memory.view().step).tolist()[1:] == batches
        if budget < 6:
            start = np.random.default_rng(0).uniform(0.0, 1.0, size=(1, 3))
            assert np.array_equal(memory.view().values[0], decode_design(space, start)[0])


def test_baselines_score_in_batches(dose_task, regimen_task, scored_batches):
    """Random search scores a batch at a time, annealing its 64 probes at
    once and then each move alone, greedy ascent each gradient step's two
    probes per dim for all four chains (or each flip sweep) at once; every
    scored design is one memory row."""
    hp = Hyperparams(budget=80, batch_size=32)
    expected = {"random-search": [32, 32, 16], "simulated-annealing": [64] + [1] * 16,
                "surrogate-greedy": [8] * 10}
    for variant, sizes in expected.items():
        scored_batches.clear()
        result = run_baseline(dose_task, variant, RunConfig(method=variant, hp=hp), seed=3)
        assert scored_batches == sizes
        assert len(result.memory) == result.surrogate_calls == 80
    scored_batches.clear()
    result = run_baseline(regimen_task, "surrogate-greedy",
                          RunConfig(method="surrogate-greedy", hp=hp), seed=3)
    assert max(scored_batches) == 16  # one flip per dim
    assert sum(scored_batches) == len(result.memory) == 80


@pytest.mark.parametrize("task_name", ["dose", "regimen"])
def test_every_method_steps_once_per_append(task_name, scored_batches, request):
    """A row's step is the ordinal of the append that logged it: leon's
    t-th batch, scored with `lambda_trace[t - 1]`; random search's t-th batch; annealing's probes (1) and chain (2);
    greedy ascent's t-th scored batch (a gradient step or a flip sweep)."""

    def ordinals(sizes):  # the steps of batches of `sizes` rows, one append each
        return np.repeat(np.arange(1, len(sizes) + 1), sizes)

    task = request.getfixturevalue(f"{task_name}_task")
    hp = Hyperparams(budget=100, batch_size=32)
    result = run_leon(task, RunConfig(hp=hp), seed=1)
    assert np.array_equal(result.memory.view().step, ordinals([32, 32, 32, 4]))
    assert len(result.lambda_trace) == 4
    for variant in BASELINES:
        scored_batches.clear()
        result = run_baseline(task, variant, RunConfig(method=variant, hp=hp), seed=1)
        logged = [64, 36] if variant == "simulated-annealing" else scored_batches
        assert np.array_equal(result.memory.view().step, ordinals(logged))
        assert len(result.memory) == result.surrogate_calls


# ---------------------------------------------------------------------------
# cohort evaluation
# ---------------------------------------------------------------------------


def test_cohort_single_patient_degenerate_sem(dose_task):
    cfg = RunConfig(method="random-search", hp=HP_SMALL)
    res = evaluate_cohort(dose_task, [cfg], n_patients=1, seed=0)
    assert res.summaries[0].sem == 0.0
    assert res.summaries[0].degenerate


def test_cohort_identical_methods_identical_rows(dose_task):
    cfg = RunConfig(method="random-search", hp=HP_SMALL)
    res = evaluate_cohort(dose_task, [cfg, cfg], n_patients=3, seed=4)
    a, b = res.summaries
    assert (a.mean, a.sem) == (b.mean, b.sem)
    assert a.rank == b.rank


def test_cohort_mean_sem_match_reference(dose_task):
    cfg = RunConfig(method="random-search", hp=HP_SMALL)
    res = evaluate_cohort(dose_task, [cfg], n_patients=4, seed=8)
    scores = [r.oracle_score for r in res.records]
    mean = sum(scores) / len(scores)
    sem = (sum((s - mean) ** 2 for s in scores) / (len(scores) - 1)) ** 0.5 / len(scores) ** 0.5
    assert res.summaries[0].mean == pytest.approx(mean)
    assert res.summaries[0].sem == pytest.approx(sem)


def test_cohort_oracle_isolation(dose_task, oracle_ids):
    """Each method calls the oracle once per patient and never otherwise;
    a serial cohort runs the methods one after another."""
    cfgs = [RunConfig(method="leon", hp=HP_SMALL),
            RunConfig(method="random-search", hp=HP_SMALL)]
    n = 3
    res = evaluate_cohort(dose_task, cfgs, n_patients=n, seed=2)
    patients = [f"p{i:03d}" for i in range(n)]
    assert oracle_ids == patients * len(cfgs)
    assert [r.patient_id for r in res.records] == patients * len(cfgs)
    for r in res.records:
        assert r.surrogate_calls <= HP_SMALL.budget


def test_cohort_starts_no_more_workers_than_runs(dose_task, monkeypatch):
    """The process pool starts every worker it is given at once, so a
    2-run cohort with `jobs=8` asks for 2."""
    import concurrent.futures

    started = []

    class SerialExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    cfg = RunConfig(method="random-search", hp=HP_SMALL)
    res = evaluate_cohort(dose_task, [cfg], n_patients=2, seed=6, jobs=8)
    assert started == [2]
    serial = evaluate_cohort(dose_task, [cfg], n_patients=2, seed=6, jobs=1)
    assert [r.to_json() for r in res.records] == [r.to_json() for r in serial.records]


def test_cohort_parallel_matches_serial(dose_task):
    cfg = RunConfig(method="random-search", hp=HP_SMALL)
    serial = evaluate_cohort(dose_task, [cfg], n_patients=2, seed=6, jobs=1)
    parallel = evaluate_cohort(dose_task, [cfg], n_patients=2, seed=6, jobs=2)
    assert [r.to_json() for r in serial.records] == [r.to_json() for r in parallel.records]


@pytest.mark.parametrize("jobs", [1, 2])
def test_cohort_runs_the_given_task(jobs):
    """The cohort runs the Task object it is handed, not the registered task
    of the same name: an 8-bit regimen yields 8-value designs."""
    task = make_regimen_task(0, n_bits=8)
    cfgs = [RunConfig(method="leon", hp=HP_SMALL), RunConfig(method="random-search", hp=HP_SMALL)]
    res = evaluate_cohort(task, cfgs, n_patients=1, seed=3, jobs=jobs)
    assert [len(r.final_design.values) for r in res.records] == [8, 8]


def test_run_method_dispatch(dose_task):
    leon_res = run_method(dose_task, RunConfig(method="leon", hp=HP_SMALL), seed=1)
    base_res = run_method(dose_task, RunConfig(method="random-search", hp=HP_SMALL), seed=1)
    assert leon_res.method == "leon[boltzmann-memory]"
    assert base_res.method == "random-search"


def test_make_engine_rejects_unknown(dose_task):
    with pytest.raises(ValueError):
        make_engine(RunConfig(engine="gradient-llm"), seed=0)


@pytest.mark.parametrize("build", [
    lambda: RunConfig(beta=True),
    lambda: RunConfig(hp={"budget": 64}),  # the run died on `hp.budget`
    lambda: Hyperparams(w0=True),
    lambda: Hyperparams(eta_lambda=True),
    lambda: RunConfig(engine_params={"nope": 1}),  # these raised TypeError
    lambda: RunConfig(engine_params={"seed": 5}),  # the run derives the seed
    lambda: RunConfig(engine_params="x"),
    lambda: RunConfig(method="simulated-annealing", engine_params={"nope": 1}),  # no engine
    # settings that are constants now, refused even at their old defaults
    lambda: RunConfig(surrogate_variant="oracle"),  # the oracle arm is mixture_w=1
    lambda: RunConfig(engine_params={"pool_size": 64}),
    lambda: RunConfig(engine_params={"top_m": 8}),
    lambda: RunConfig(engine_params={"explore_frac": 0.25}),
    lambda: RunConfig(engine="hill-climb", engine_params={"step": 0.05}),
], ids=["beta=True", "hp=dict",
        "w0=True", "eta_lambda=True", "engine_params-unknown",
        "engine_params-seed", "engine_params-str", "engine_params-baseline",
        "surrogate-oracle", "pool_size", "top_m", "explore_frac", "hill-climb-step"])
def test_python_configs_follow_the_cli_rules(build):
    """A Python caller's config is checked by the rules `leon run` applies:
    each of these is a config error there and a ValueError here."""
    with pytest.raises(ValueError):
        build()


def test_knowledge_budget_is_no_run_setting():
    """A leon run takes at most `KNOWLEDGE_BUDGET` knowledge round trips;
    a config cannot set another number."""
    with pytest.raises(TypeError, match="knowledge_budget"):
        RunConfig(knowledge_budget=5)


@pytest.mark.parametrize("build, name", [
    (lambda: RunConfig(memory_view=64), "memory_view"),
    (lambda: RunConfig(source_pool_size=128), "source_pool_size"),
    (lambda: Hyperparams(mu_max=100.0), "mu_max"),
], ids=["memory_view", "source_pool_size", "mu_max"])
def test_removed_settings_are_refused(build, name):
    """Each prompt shows the memory's last `MEMORY_VIEW` rows, a run draws
    `SOURCE_POOL_SIZE` source designs unless handed a pool, and mu clamps
    at `MU_MAX`: no config sets another value, not even the old default."""
    with pytest.raises(TypeError, match=name):
        build()


def test_large_source_pool_trains_critic_on_every_row(dose_task, monkeypatch):
    """Every critic solve of a run has the whole 600-row source pool as its
    rows and the whole batch as its columns."""
    import leon.critic

    shapes = []
    real = leon.critic._sinkhorn

    def solve(C, f, eps):
        shapes.append(C.shape)
        return real(C, f, eps)

    monkeypatch.setattr(leon.critic, "_sinkhorn", solve)
    cfg = RunConfig(method="leon", hp=HP_SMALL, partition="random")
    pool = SourcePool(dose_task.space, dose_task.source_designs(np.random.default_rng(0), 600))
    result = run_leon(dose_task, cfg, seed=1, source_pool=pool)
    assert len(result.memory) == 64
    assert shapes == [(600, 32)] * 2


class ScriptedChat:
    """A deterministic stand-in for a chat API: it answers each kind of
    prompt the chat engine sends under that prompt's output contract, and
    records every prompt by kind."""

    def __init__(self):
        self.prompts = {"action": [], "synthesis": [], "proposal": [], "reflection": []}

    def __call__(self, messages):
        text = messages[-1]["content"]
        if "Available knowledge sources" in text:
            self.prompts["action"].append(text)
            first = "Queries so far:\n(none)" in text
            return json.dumps({"source": "facts" if first else None,
                               "query": "dose rule", "stop": not first})
        if "Retrieved material:" in text:
            self.prompts["synthesis"].append(text)
            material = text.split("Retrieved material:\n")[1].split("\n\n")[0]
            return "Synthesized: " + material.splitlines()[-1]  # the source's answer
        if "### Scores of the last batch" in text:
            self.prompts["reflection"].append(text)
            return f"Reflection {len(self.prompts['reflection'])}: explore higher doses."
        need = int(re.search(r"Propose exactly (\d+) new designs", text).group(1))
        k = len(self.prompts["proposal"])
        self.prompts["proposal"].append(text)
        return json.dumps([{"Dose": (17.0 + 7.0 * (k * need + i)) % 100} for i in range(need)])


def _chat_run(task, hp=HP_SMALL):
    chat = ScriptedChat()
    engine = ChatApiEngine(model="stub", endpoint=NO_SERVER, seed=0)
    engine._chat = chat
    cfg = RunConfig(method="leon", engine="chat-api", engine_params={"endpoint": NO_SERVER},
                    hp=hp)
    sources = [StaticFactsSource("facts", "higher context sums need higher doses")]
    return run_leon(task, cfg, seed=6, sources=sources, engine=engine), chat


def test_run_with_knowledge_sources(dose_task):
    """One offline run through the chat path: the synthesized knowledge and
    each step's reflection reach the next proposal prompt."""
    result, chat = _chat_run(dose_task)
    assert len(chat.prompts["action"]) == 2 and len(chat.prompts["synthesis"]) == 1
    knowledge = "Synthesized: higher context sums need higher doses"
    proposals = chat.prompts["proposal"]
    assert len(proposals) == 2
    for prompt in proposals:
        assert f"### Prior Knowledge\n{knowledge}\n\n### Subject" in prompt
    assert result.reflections == ["Reflection 1: explore higher doses.", ""]
    assert "### Reflection\n\n\n### Task" in proposals[0]
    assert f"### Reflection\n{result.reflections[0]}\n\n### Task" in proposals[1]
    assert "reflections" not in result.to_json()
    assert not any("filled" in w for w in result.warnings)
    again, chat_again = _chat_run(dose_task)
    assert again.to_json() == result.to_json() and chat_again.prompts == chat.prompts


def test_chat_run_stays_in_value_rows(dose_task, monkeypatch):
    """The chat engine parses replies into value rows and renders its
    prompt table from the memory view's columns: a budget-256 run over 8
    proposal prompts builds one `Design`, its final design, and no
    `MemoryEntry`."""
    import leon.core

    designs, entries = [], []
    real_post_init, real_entry = Design.__post_init__, leon.core.MemoryEntry
    monkeypatch.setattr(Design, "__post_init__",
                        lambda self: designs.append(self) or real_post_init(self))
    monkeypatch.setattr(leon.core, "MemoryEntry", lambda *a: entries.append(a) or real_entry(*a))
    result, chat = _chat_run(dose_task, Hyperparams(budget=256, batch_size=32))
    assert len(result.memory) == 256 and len(chat.prompts["proposal"]) == 8
    assert len(designs) == 1 and designs[0] is result.final_design
    assert entries == []


def test_chat_engine_degrades_to_random_in_full_run(dose_task):
    # an endpoint that refuses connections: every proposal round fails fast
    # and the run completes on random fallback designs with warnings recorded
    cfg = RunConfig(method="leon", engine="chat-api",
                    engine_params={"model": "stub", "endpoint": NO_SERVER, "max_retries": 1,
                                   "retry_wait": 0.0},
                    hp=HP_SMALL)
    result = run_leon(dose_task, cfg, seed=2)
    assert len(result.memory) == 64
    assert any("filled" in w for w in result.warnings)
