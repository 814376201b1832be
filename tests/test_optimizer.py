import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import leon.optimizer
from leon.core import Context, ContinuousDim, Design, DesignSpace, Hyperparams, TrajectoryMemory
from leon.optimizer import (
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
from leon.tasks import AnalyticShiftSurrogate, make_dose_task, make_regimen_task, oracle_eval

HP_SMALL = Hyperparams(budget=64, batch_size=32)


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
    mem = TrajectoryMemory(LINE, budget=len(rows))
    for step, dose, raw, score in rows:
        mem.append_batch(step, [Design((dose,))], [raw], [score], [0])
    return mem


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_select_single_entry():
    mem = _mem([(1, 10.0, 1.0, 0.5)])
    assert select_final(mem).values == (10.0,)


def test_select_argmax_score():
    mem = _mem([(1, 1.0, 0.0, 0.1), (1, 2.0, 0.0, 0.9), (1, 3.0, 0.0, 0.3)])
    assert select_final(mem).values == (2.0,)


def test_select_tie_breaks_by_raw_then_step():
    mem = _mem([(1, 1.0, 1.0, 0.5), (1, 2.0, 2.0, 0.5)])
    assert select_final(mem).values == (2.0,)
    mem = _mem([(1, 1.0, 2.0, 0.5), (2, 2.0, 2.0, 0.5)])
    assert select_final(mem).values == (1.0,)  # earliest step on a full tie


def test_select_by_raw_flag():
    mem = _mem([(1, 1.0, 5.0, 0.0), (1, 2.0, 3.0, 4.0)])
    assert select_final(mem).values == (2.0,)
    assert select_final(mem, by_raw=True).values == (1.0,)


def test_select_empty_memory():
    with pytest.raises(ValueError):
        select_final(TrajectoryMemory(LINE, budget=1))


def _select_by_loop(entries, by_raw):
    """The rule as a loop over entries, the reference for `select_final`."""
    best, best_key = None, None
    for e in entries:
        key = (e.raw_value, e.score) if by_raw else (e.score, e.raw_value)
        if best_key is None or key > best_key:  # strict: first occurrence wins ties
            best, best_key = e, key
    return best.design


TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])


@given(st.lists(st.tuples(st.integers(0, 2), TIED, TIED), min_size=1, max_size=24),
       st.booleans())
def test_select_matches_the_loop_on_exact_ties(rows, by_raw):
    mem = TrajectoryMemory(LINE, budget=len(rows))
    step = 0
    for i, (advance, raw, score) in enumerate(rows):
        step += advance
        mem.append_batch(step, [Design((float(i),))], [raw], [score], [0])  # the row's own dose
    assert select_final(mem, by_raw=by_raw) == _select_by_loop(mem.entries, by_raw)


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
    metered = MeteredSurrogate(_Flat(), budget=3)
    ctx = Context((0.0,), id="c")
    for _ in range(3):
        metered.value([Design((1.0,))], ctx)
    with pytest.raises(BudgetExceededError):
        metered.value([Design((1.0,))], ctx)
    assert metered.calls == 3


def test_metered_batch_charges_its_length_and_an_overflow_charges_nothing():
    inner = _Flat()
    metered = MeteredSurrogate(inner, budget=5)
    ctx = Context((0.0,), id="c")
    assert metered.value([Design((1.0,))] * 3, ctx).shape == (3,)
    assert (metered.calls, metered.remaining) == (3, 2)
    with pytest.raises(BudgetExceededError):
        metered.value([Design((1.0,))] * 3, ctx)
    assert metered.calls == 3
    assert inner.batches == [3]  # the overflowing batch never reached the surrogate
    metered.value([Design((1.0,))] * 2, ctx)
    assert (metered.calls, inner.batches) == (5, [3, 2])


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
    mu_by_step = {t.step: t.mu_hat for t in result.memory.traces}
    for e in result.memory.entries:
        assert e.score == mu_by_step[e.step] * e.raw_value


def test_lambda_nonnegative_and_w1_finite(dose_task):
    cfg = RunConfig(method="leon", hp=Hyperparams(budget=128, batch_size=32))
    result = run_leon(dose_task, cfg, seed=9)
    assert all(lam >= 0.0 for lam in result.lambda_trace)
    assert all(np.isfinite(w) for w in result.w1_trace)


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


def test_default_run_critic_and_validation_counts(dose_task, monkeypatch):
    """After training, a step reads the critic's values from the pass that
    ended training: one forward pass per step, before training. Designs are
    checked by `encode_batch`, so only the harness's oracle call validates a
    single design."""
    import leon.core
    import leon.critic

    calls = {"forward": 0, "gradient": 0, "validate": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(leon.critic, "net_forward_batch",
                        counted("forward", leon.critic.net_forward_batch))
    monkeypatch.setattr(leon.critic, "net_gradient", counted("gradient", leon.critic.net_gradient))
    monkeypatch.setattr(leon.core.DesignSpace, "validate",
                        counted("validate", leon.core.DesignSpace.validate))
    run_leon(dose_task, RunConfig(), 0)
    assert calls == {"forward": 64, "gradient": 448, "validate": 1}


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


def test_finished_run_memory_is_small(dose_task):
    """A finished default dose run's memory holds its columns, not an object
    per entry: at most 64 bytes per entry, traces included."""
    tracemalloc.start()
    try:
        result = run_leon(dose_task, RunConfig(), 0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        n = len(result.memory)
        result.memory = None
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n == Hyperparams().budget
    assert 0 < retained <= 64 * n


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
    cfg = RunConfig(method="leon", hp=HP_SMALL, partition="score", source_pool_size=40)
    result = run_leon(dose_task, cfg, seed=1)
    assert result.surrogate_calls == HP_SMALL.budget
    assert sum(scored_batches) == HP_SMALL.budget + cfg.source_pool_size
    assert len(scored_batches) == HP_SMALL.budget // HP_SMALL.batch_size + 1


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
    vals = sur.value([Design((float(x),)) for x in grid], ctx)
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


def test_sa_zero_temperature_accepts_only_improvements():
    # the acceptance rule at the temperature floor: exp(delta/temp) vanishes
    # for any worsening move
    assert float(np.exp(-0.1 / 1e-300)) == 0.0
    assert float(np.exp(0.0 / 1e-300)) == 1.0


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


def test_baselines_score_in_batches(dose_task, regimen_task, scored_batches):
    """Random search scores a batch at a time, annealing its 64 probes at
    once and then each move alone, greedy ascent each gradient step's two
    probes per dim (or each flip sweep) at once; every scored design is one
    memory row, and the row-per-step baselines number steps by row."""
    cfg = RunConfig(hp=Hyperparams(budget=80, batch_size=32))
    expected = {"random-search": [32, 32, 16], "simulated-annealing": [64] + [1] * 16,
                "surrogate-greedy": [2] * 40}
    for variant, sizes in expected.items():
        scored_batches.clear()
        result = run_baseline(dose_task, variant, cfg, seed=3)
        assert scored_batches == sizes
        assert len(result.memory) == result.surrogate_calls == 80
        if variant != "surrogate-greedy":
            assert np.array_equal(result.memory.view().step, np.arange(80))
    scored_batches.clear()
    result = run_baseline(regimen_task, "surrogate-greedy", cfg, seed=3)
    assert max(scored_batches) == 16  # one flip per dim
    assert sum(scored_batches) == len(result.memory) == 80


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


def test_large_source_pool_subsampled(dose_task):
    cfg = RunConfig(method="leon", hp=HP_SMALL, source_pool_size=600,
                    partition="random")
    result = run_leon(dose_task, cfg, seed=1)
    assert len(result.memory) == 64


def test_run_with_knowledge_sources(dose_task):
    from leon.proposal import StaticFactsSource

    sources = [StaticFactsSource("facts", "higher context sums need higher doses")]
    cfg = RunConfig(method="leon", hp=HP_SMALL, knowledge_budget=2)
    a = run_leon(dose_task, cfg, seed=6, sources=sources)
    b = run_leon(dose_task, cfg, seed=6, sources=sources)
    assert a.to_json() == b.to_json()


def test_chat_engine_degrades_to_random_in_full_run(dose_task):
    # no endpoint configured: every proposal round fails fast and the run
    # completes on random fallback designs with warnings recorded
    cfg = RunConfig(method="leon", engine="chat-api",
                    engine_params={"model": "stub", "max_retries": 1, "retry_wait": 0.0},
                    hp=HP_SMALL)
    result = run_leon(dose_task, cfg, seed=2)
    assert len(result.memory) == 64
    assert any("filled" in w for w in result.warnings)
