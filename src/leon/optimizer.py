"""The outer optimization loop, final-design selection, baselines, and
cohort evaluation.

Every method sees the surrogate only through one handle that holds the run's
context, meters the evaluation budget and checks its values; the ground-truth
oracle is called once per run, by the harness, after the budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certainty import (
    DEFAULT_MU,
    boltzmann_weights,
    class_optima,
    dual_gradient,
    estimate_mu,
    score_designs,
    update_lambda,
)
from .core import Context, Design, Hyperparams, TrajectoryMemory, read_float, read_int, short_repr
from .critic import SourcePool, critic_train, init_critic, w1_estimate
from .critic import critic_values  # noqa: F401 - perfbench's tracer wraps optimizer.critic_values
from .equivalence import PARTITIONS, fit_partition
from .proposal import (
    BoltzmannMemoryEngine,
    ChatApiEngine,
    HillClimbEngine,
    PromptState,
    RandomEngine,
    generate_knowledge,
    propose,
    random_design,
    reflect,
)
from .tasks import SURROGATES, MixtureSurrogate, OracleSurrogate, Task, make_surrogate, oracle_eval
from .tasks import make_task  # noqa: F401 - perfbench's tracer wraps optimizer.make_task
from .core import NumericError, decode_design


class BudgetExceededError(RuntimeError):
    """An optimizer asked for more surrogate evaluations than it was given."""


class MeteredSurrogate:
    """A run's one handle on its surrogate, for the run's context `ctx`. `calls`
    counts the designs (value rows) charged against the budget, not calls."""

    def __init__(self, inner, budget: int, ctx: Context):
        self.inner = inner
        self.budget = budget
        self.ctx = ctx
        self.calls = 0

    @property
    def remaining(self) -> int:
        return self.budget - self.calls

    def charge(self, n: int) -> None:
        """Charge `n` designs against the budget: the one budget check. A
        charge that would overflow the budget raises and charges nothing."""
        if self.calls + n > self.budget:
            raise BudgetExceededError(
                f"surrogate budget {self.budget} exceeded ({self.calls} + {n} designs)")
        self.calls += n

    def value(self, V: np.ndarray) -> np.ndarray:
        """The inner surrogate's values of `(n, d)` value rows, charged `n`;
        a batch that would overflow the budget raises before any is scored."""
        self.charge(len(V))
        return self.unmetered(V)

    def unmetered(self, V: np.ndarray) -> np.ndarray:
        """The inner surrogate's values of `(n, d)` value rows, uncharged: `n`
        finite numbers, else ValueError (a wrong shape) or NumericError."""
        f = np.asarray(self.inner.value(V, self.ctx))
        if f.shape != (len(V),):
            raise ValueError(f"surrogate returned shape {f.shape} for {len(V)} rows")
        if not np.isfinite(f).all():
            raise NumericError(f"surrogate returned non-finite values for {len(V)} rows")
        return f


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint32)[0])


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

BASELINES = ("random-search", "simulated-annealing", "surrogate-greedy")
KNOWLEDGE_BUDGET = 5  # the most knowledge-source round trips before a leon run
SOURCE_POOL_SIZE = 128  # source designs a leon run draws when given no pool
MEMORY_VIEW = 64  # the memory's last rows each prompt shows
ENGINES = {"random": RandomEngine, "boltzmann-memory": BoltzmannMemoryEngine,
           "hill-climb": HillClimbEngine, "chat-api": ChatApiEngine}


@dataclass(frozen=True)
class RunConfig:
    """One method's settings, checked at construction: each name one of its
    known values, `hp` a `Hyperparams`, each number read by `read_float`,
    and a leon method's `engine_params` by building its engine once; a
    baseline has no engine, so it takes no `engine_params`."""

    method: str = "leon"  # "leon" or one of BASELINES
    engine: str = "boltzmann-memory"  # one of ENGINES
    engine_params: dict = field(default_factory=dict)
    partition: str = "kmeans"  # one of PARTITIONS
    surrogate_variant: str = "analytic-shift"  # one of SURROGATES
    beta: float = 0.5
    radius: float = 1.0
    mixture_w: float | None = None  # None = pure surrogate; w in [0,1] mixes in the oracle
    hp: Hyperparams = field(default_factory=Hyperparams)

    def __post_init__(self):
        for name, known in (("method", ("leon", *BASELINES)), ("engine", tuple(ENGINES)),
                            ("partition", PARTITIONS), ("surrogate_variant", SURROGATES)):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {list(known)}, "
                                 f"got {short_repr(getattr(self, name))}")
        if not isinstance(self.hp, Hyperparams):
            raise ValueError(f"hp must be a Hyperparams, got {short_repr(self.hp)}")
        for name in ("beta", "radius"):
            object.__setattr__(self, name, read_float(getattr(self, name), name))
        if self.mixture_w is not None:
            object.__setattr__(self, "mixture_w", read_float(self.mixture_w, "mixture_w", 0.0, 1.0))
        if not isinstance(self.engine_params, dict):
            raise ValueError(f"engine_params must be a dict, got {short_repr(self.engine_params)}")
        if "seed" in self.engine_params:
            raise ValueError("engine_params may not set seed: each run derives its engine's seed")
        if self.method == "leon":
            try:
                make_engine(self, seed=0)  # building an engine sends no request
            except TypeError as exc:  # a parameter the engine does not take
                raise ValueError(f"engine_params: {exc}") from exc
        elif self.engine_params:
            raise ValueError(f"engine_params: {self.method} has no engine")

    @property
    def label(self) -> str:
        return f"leon[{self.engine}]" if self.method == "leon" else self.method


@dataclass
class RunResult:
    """One run's outcome. `surrogate_calls` counts the designs the metered
    surrogate scored, not its calls: one call scores a batch. A leon run
    keeps the engine's reflection after each step in `reflections`: the
    chat engine's replies, "" on the last step, and "" throughout for the
    mock engines, which do not reflect. `to_json` leaves them out."""

    task: str
    method: str
    seed: int
    patient_id: str
    final_design: Design
    oracle_score: float
    lambda_trace: list[float] = field(default_factory=list)
    mu_trace: list[float] = field(default_factory=list)
    w1_trace: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    memory: TrajectoryMemory | None = None
    surrogate_calls: int = 0
    reflections: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "method": self.method,
            "seed": self.seed,
            "patient_id": self.patient_id,
            "final_design": self.final_design.to_json(),
            "oracle_score": float(self.oracle_score),
            "lambda_trace": [float(v) for v in self.lambda_trace],
            "mu_trace": [float(v) for v in self.mu_trace],
            "w1_trace": [float(v) for v in self.w1_trace],
            "warnings": list(self.warnings),
        }


def make_engine(cfg: RunConfig, seed: int):
    return ENGINES[cfg.engine](seed=seed, **cfg.engine_params)


def build_surrogate(task: Task, cfg: RunConfig, seed: int):
    base = make_surrogate(task, variant=cfg.surrogate_variant, seed=seed,
                          beta=cfg.beta, radius=cfg.radius)
    if cfg.mixture_w is None:
        return base
    return MixtureSurrogate(OracleSurrogate(task), base, cfg.mixture_w)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def select_final(memory: TrajectoryMemory) -> Design:
    """The entry with the highest raw value (f + lambda * c as logged); ties
    go to the earliest row. Every method returns this design: mu scales
    only what the proposer sees, not the objective."""
    if len(memory) == 0:
        raise ValueError("empty memory")
    rows = memory.view()
    return rows.design(int(np.argmax(rows.raw)))  # argmax: earliest row of a tie


def _start(task: Task, cfg: RunConfig, seed: int, ctx, surrogate):
    """A run's surrogate, built from `derive_seed(seed, 4)` unless given,
    metered to the budget for the run's context, drawn from `[seed, 1]`
    unless given; and an empty memory of the budget's rows."""
    if ctx is None:
        ctx = task.sample_context(np.random.default_rng([seed, 1]), "target", id=f"t{seed}")
    if surrogate is None:
        surrogate = build_surrogate(task, cfg, derive_seed(seed, 4))
    return (MeteredSurrogate(surrogate, cfg.hp.budget, ctx),
            TrajectoryMemory(task.space, cfg.hp.budget))


def _finish(task: Task, method: str, seed: int, metered: MeteredSurrogate,
            memory: TrajectoryMemory, **traces) -> RunResult:
    """The run's result: its final design, scored by the oracle once."""
    final, ctx = select_final(memory), metered.ctx
    return RunResult(task=task.name, method=method, seed=seed, patient_id=ctx.id,
                     final_design=final, oracle_score=oracle_eval(task, final, ctx),
                     memory=memory, surrogate_calls=metered.calls, **traces)


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def run_leon(task: Task, cfg: RunConfig, seed: int, *, ctx: Context | None = None,
             sources=(), engine=None, surrogate=None, source_pool=None) -> RunResult:
    """One full optimization run for a single context.

    ceil(budget / batch) acquisition steps of: propose, evaluate the
    surrogate, refit the critic to the fresh batch, add lambda times the
    batch's values under the critic before the refit, assign classes,
    reduce to per-class optima, re-estimate mu, step lambda along the
    refit critic's dual gradient, score and log the batch, reflect.
    Deterministic under mock engines and a fixed seed. The keyword
    overrides exist for controlled experiments and tests.

    The `score` partition cuts its bins around the surrogate's values of
    the source pool (a fresh critic reads 0 on them), so it scores the
    source pool in one unmetered call, checked as every call is: those
    designs lie outside the budget and `surrogate_calls` does not count them.
    """
    hp = cfg.hp
    metered, memory = _start(task, cfg, seed, ctx, surrogate)
    if source_pool is None:
        rng_src = np.random.default_rng([seed, 2])
        source_pool = SourcePool(task.space, task.source_designs(rng_src, SOURCE_POOL_SIZE))
    if engine is None:
        engine = make_engine(cfg, derive_seed(seed, 3))
    critic = init_critic(source_pool.encoded, source_pool.space.is_bool)
    lam, mu_hat = hp.lambda0, DEFAULT_MU
    warnings: list[str] = []

    src_raw = metered.unmetered(source_pool.values) if cfg.partition == "score" else None
    partition = fit_partition(cfg.partition, source_pool, seed=derive_seed(seed, 6),
                              src_raw=src_raw)

    prompt_state = PromptState(knowledge="", reflection="", memory_view=memory.view(),
                               context=metered.ctx, task_description=task.description)
    prompt_state.knowledge = generate_knowledge(engine, list(sources), prompt_state,
                                                KNOWLEDGE_BUDGET)

    n_steps = int(np.ceil(hp.budget / hp.batch_size))
    lambda_trace, mu_trace, w1_trace, reflections = [], [], [], []

    for t in range(1, n_steps + 1):
        b = min(hp.batch_size, metered.remaining)
        prompt_state.memory_view = memory.view(MEMORY_VIEW)
        values, batch_enc = propose(engine, prompt_state, b)

        f_vals = metered.value(values)
        critic, src_c, batch_c, c_vals = critic_train(critic, batch_enc)
        raw = f_vals + lam * c_vals
        assignments = partition.assign(batch_enc, raw)

        stats = class_optima(raw, assignments)
        mu_hat = estimate_mu(stats, mu_hat)

        # the dual gradient reads the refit critic at each class's best row
        qbar = boltzmann_weights(stats, mu_hat)
        grad = dual_gradient(hp.w0, float(src_c.mean()), batch_c[stats.best_rows], qbar)
        w1_now = w1_estimate(src_c, batch_c)

        lambda_trace.append(lam)  # the value that scored this batch
        mu_trace.append(mu_hat)
        w1_trace.append(w1_now)

        scores = score_designs(raw, mu_hat)
        memory.append_batch(values, raw, scores, assignments)

        # the next proposal reads this step's reflection
        prompt_state.reflection = reflect(engine, prompt_state, scores) if t < n_steps else ""
        reflections.append(prompt_state.reflection)

        lam = update_lambda(lam, grad, hp.eta_lambda, t)
        warnings.extend(engine.warnings)
        engine.warnings.clear()

    return _finish(task, cfg.label, seed, metered, memory, lambda_trace=lambda_trace,
                   mu_trace=mu_trace, w1_trace=w1_trace, warnings=warnings,
                   reflections=reflections)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def _score(metered, memory, V):
    """Score a batch of value rows and log it as one step; a baseline's raw
    value is its score."""
    values = metered.value(V)
    memory.append_batch(V, values, values, np.zeros(len(V), dtype=np.int64))
    return values


def _random_search(space, metered, rng, memory, chunk):
    while metered.remaining > 0:
        _score(metered, memory, random_design(space, rng, min(chunk, metered.remaining)))


def _simulated_annealing(space, metered, rng, memory):
    """Single chain with a geometric temperature schedule calibrated so the
    final temperature is 1% of the initial one. After the 64 probes, each
    move copies the current row with one random dim moved (a continuous dim
    jittered by 0.1 of its width and clamped, a boolean flipped) and is
    scored alone; the probes are logged as step 1 and, once the chain ends,
    its rows as step 2. A move onto a row an earlier move already scored (a
    rejected flip undone, a clamp at a bound) reuses that value and is
    charged through `metered.charge`, so the budget, the chain and the log
    are those of scoring it again. A probe's value is not reused: a batch
    call may differ from a single-row call in its last bit."""
    probes = random_design(space, rng, min(64, metered.remaining))
    vals = _score(metered, memory, probes)
    t0 = float(np.std(vals)) or 1.0
    n = metered.remaining
    if n == 0:
        return
    alpha = 0.01 ** (1.0 / n)
    best_i = int(np.argmax(vals))
    current, cur_val = probes[best_i], vals[best_i]
    temp = t0
    is_bool, lo, hi = space.is_bool, space.lo, space.hi
    width = 0.1 * (hi - lo)
    rows, row_vals = np.empty((n, len(is_bool))), np.empty(n)
    scored = {}  # a move-scored row's bytes -> its value
    for t in range(n):
        i = int(rng.integers(len(is_bool)))
        cand = rows[t]
        cand[:] = current
        if is_bool[i]:
            cand[i] = 1.0 - cand[i]
        else:
            cand[i] = min(max(float(cand[i]) + rng.normal(0.0, width[i]), lo[i]), hi[i])
        key = cand.tobytes()
        cand_val = scored.get(key)
        if cand_val is None:
            cand_val = scored[key] = metered.value(rows[t:t + 1])[0]
        else:
            metered.charge(1)
        row_vals[t] = cand_val
        delta = cand_val - cur_val
        temp *= alpha
        if delta >= 0 or rng.random() < np.exp(delta / max(temp, 1e-300)):
            current, cur_val = cand, cand_val
    memory.append_batch(rows, row_vals, row_vals, np.zeros(n, dtype=np.int64))


GREEDY_RESTARTS = 4
GREEDY_LR = 0.05  # ascent step in encoded units, decayed by 1/sqrt(k)
GREEDY_FD_STEP = 1e-3  # central-difference half width in encoded units


def _surrogate_greedy(space, metered, rng, memory):
    """Greedy surrogate ascent from random starts, each given an equal share
    of the budget: `GREEDY_RESTARTS` of them, or as many as the budget can
    pay one move of (2 probes per continuous dim, or 1 design on boolean
    dims), and at least 1; the last flip restart takes what the others left,
    so greedy spends its whole budget. Every dim must be boolean (single
    flips) or every dim continuous (gradient steps); a mixed space raises
    before any charge."""
    flips = space.is_bool.any()
    if flips and not space.is_bool.all():
        raise ValueError("surrogate-greedy needs every dim boolean or every dim continuous")
    cost = 1 if flips else 2 * len(space.dims)
    restarts = max(1, min(GREEDY_RESTARTS, metered.budget // cost))
    share = metered.budget // restarts
    if flips:
        for r in range(restarts):
            _greedy_flip(space, metered, rng, memory,
                         share if r < restarts - 1 else metered.remaining)
    else:
        _greedy_continuous(space, metered, rng, memory, restarts, share // cost)


def _greedy_continuous(space, metered, rng, memory, chains, steps):
    """`chains` normalized-gradient ascents in encoded units with a
    1/sqrt(k) decayed step, via central finite differences on the surrogate,
    run side by side: step k scores every chain's probes in one call, chain
    by chain, and moves every chain with a nonzero gradient in one array
    update. Each chain's arithmetic is that of a chain run alone. The budget
    left after the steps scores the chains' final positions, which no step
    scored, as far as it goes, then uniform designs."""
    d = len(space.dims)
    u = rng.uniform(0.0, 1.0, size=(chains, d))  # the draws of one start after another
    j = np.arange(d)
    j_up, j_down = 2 * j, 2 * j + 1  # a chain's rows 2j and 2j + 1 probe dim j up and down
    for k in range(1, steps + 1):
        up, down = np.minimum(u + GREEDY_FD_STEP, 1.0), np.maximum(u - GREEDY_FD_STEP, 0.0)
        U = np.repeat(u, 2 * d, axis=0).reshape(chains, 2 * d, d)
        U[:, j_up, j] = up
        U[:, j_down, j] = down
        vals = _score(metered, memory, decode_design(space, U.reshape(-1, d)))
        vals = vals.reshape(chains, 2 * d)
        denoms = up - down
        grad = np.divide(vals[:, j_up] - vals[:, j_down], denoms, out=np.zeros((chains, d)),
                         where=denoms > 0)
        # vecdot is each row's BLAS dot, as a 1-D norm; an axis=1 norm sums differently
        norm = np.sqrt(np.vecdot(grad, grad))
        live = norm > 0
        u[live] = np.clip(u[live] + (GREEDY_LR / np.sqrt(k)) * grad[live] / norm[live, None],
                          0.0, 1.0)
    if metered.remaining > 0:
        _score(metered, memory, decode_design(space, u[:metered.remaining]))
    if metered.remaining > 0:
        _score(metered, memory, random_design(space, rng, metered.remaining))


def _greedy_flip(space, metered, rng, memory, allotment):
    """Best-improvement single-flip hill climbing with random restarts."""
    current = random_design(space, rng, 1)[0]
    cur_val = _score(metered, memory, current[None])[0]
    used = 1
    while used < allotment and metered.remaining > 0:
        n = min(len(space.dims), allotment - used, metered.remaining)
        cands = np.tile(current, (n, 1))  # copy i flips dim i
        i = np.arange(n)
        cands[i, i] = 1.0 - cands[i, i]
        vals = _score(metered, memory, cands)
        used += n
        best = int(np.argmax(vals))  # first of the best flips
        if vals[best] <= cur_val:  # local optimum: restart
            if used >= allotment or metered.remaining == 0:
                break
            current = random_design(space, rng, 1)[0]
            cur_val = _score(metered, memory, current[None])[0]
            used += 1
        else:
            current, cur_val = cands[best], vals[best]


def run_baseline(task: Task, variant: str, cfg: RunConfig, seed: int, *,
                 ctx: Context | None = None, surrogate=None) -> RunResult:
    """Random search, simulated annealing, or greedy surrogate ascent, all
    metered to the same budget and selecting the argmax-surrogate design.
    `variant` must be the baseline that `cfg.method` names."""
    if variant not in BASELINES or variant != cfg.method:
        raise ValueError(f"variant {short_repr(variant)} is not cfg.method, a baseline")
    rng = np.random.default_rng([seed, 40])
    metered, memory = _start(task, cfg, seed, ctx, surrogate)
    if variant == "random-search":
        _random_search(task.space, metered, rng, memory, cfg.hp.batch_size)
    elif variant == "simulated-annealing":
        _simulated_annealing(task.space, metered, rng, memory)
    else:
        _surrogate_greedy(task.space, metered, rng, memory)
    return _finish(task, variant, seed, metered, memory)


def run_method(task: Task, cfg: RunConfig, seed: int, *, ctx=None, sources=()) -> RunResult:
    if cfg.method == "leon":
        return run_leon(task, cfg, seed, ctx=ctx, sources=sources)
    return run_baseline(task, cfg.method, cfg, seed, ctx=ctx)


# ---------------------------------------------------------------------------
# Cohort evaluation
# ---------------------------------------------------------------------------


@dataclass
class MethodSummary:
    method: str
    mean: float
    sem: float
    rank: int
    n: int
    degenerate: bool = False


@dataclass
class CohortResult:
    task: str
    summaries: list[MethodSummary]
    records: list[RunResult]


def _run_one(args):
    task, cfg, run_seed, ctx = args
    return run_method(task, cfg, run_seed, ctx=ctx)


def evaluate_cohort(task: Task, cfgs, n_patients: int, seed: int, jobs: int = 1) -> CohortResult:
    """Run every configured method on the same sample of target contexts.

    Each patient run owns an RNG stream derived from (seed, patient index),
    shared across methods so comparisons are paired. SEM is reported as 0
    with a degenerate flag when n_patients == 1.
    """
    n_patients = read_int(n_patients, "n_patients", 1)
    rng = np.random.default_rng([seed, 0])
    contexts = [task.sample_context(rng, "target", id=f"p{i:03d}") for i in range(n_patients)]
    work = [
        (task, cfg, derive_seed(seed, i), ctx)
        for cfg in cfgs
        for i, ctx in enumerate(contexts)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the executor starts all its workers at once: no more than the runs
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            records = list(pool.map(_run_one, work))
    else:
        records = [_run_one(w) for w in work]

    summaries = []
    for mi, cfg in enumerate(cfgs):
        scores = np.array([r.oracle_score for r in records[mi * n_patients:(mi + 1) * n_patients]])
        mean = float(scores.mean())
        sem = float(scores.std(ddof=1) / np.sqrt(len(scores))) if len(scores) > 1 else 0.0
        summaries.append(MethodSummary(method=cfg.label, mean=mean, sem=sem, rank=0,
                                       n=n_patients, degenerate=n_patients == 1))
    for s in summaries:
        s.rank = 1 + sum(1 for other in summaries if other.mean > s.mean)
    return CohortResult(task=task.name, summaries=summaries, records=records)


__all__ = [
    "BudgetExceededError",
    "MeteredSurrogate",
    "derive_seed",
    "BASELINES",
    "ENGINES",
    "RunConfig",
    "RunResult",
    "make_engine",
    "build_surrogate",
    "select_final",
    "run_leon",
    "run_baseline",
    "run_method",
    "MethodSummary",
    "CohortResult",
    "evaluate_cohort",
]
