"""The outer optimization loop, final-design selection, baselines, and
cohort evaluation.

Every method sees the surrogate only through a metered handle capped at the
evaluation budget; the ground-truth oracle is called exactly once per run,
by the harness, after the budget is exhausted.
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
from .core import Context, Design, Hyperparams, TrajectoryMemory, StepTrace
from .critic import SourcePool, critic_train, critic_values, init_critic, w1_estimate
from .equivalence import fit_partition
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
from .tasks import MixtureSurrogate, OracleSurrogate, Task, make_surrogate, oracle_eval
from .tasks import make_task  # noqa: F401 - perfbench's tracer wraps optimizer.make_task
from .core import ContinuousDim, decode_design


class BudgetExceededError(RuntimeError):
    """An optimizer asked for more surrogate evaluations than it was given."""


class MeteredSurrogate:
    """Charges every scored design against the budget."""

    def __init__(self, inner, budget: int):
        self.inner = inner
        self.budget = budget
        self.calls = 0

    @property
    def remaining(self) -> int:
        return self.budget - self.calls

    def value(self, designs, ctx: Context) -> np.ndarray:
        """The inner surrogate's values of a batch, charged `len(designs)`;
        a batch that would overflow the budget raises before any is scored."""
        if self.calls + len(designs) > self.budget:
            raise BudgetExceededError(
                f"surrogate budget {self.budget} exceeded ({self.calls} + {len(designs)} designs)")
        self.calls += len(designs)
        return self.inner.value(designs, ctx)


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint32)[0])


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

BASELINES = ("random-search", "simulated-annealing", "surrogate-greedy")
ENGINES = ("random", "boltzmann-memory", "hill-climb", "chat-api")


@dataclass(frozen=True)
class RunConfig:
    method: str = "leon"  # "leon" or one of BASELINES
    engine: str = "boltzmann-memory"
    engine_params: dict = field(default_factory=dict)
    partition: str = "kmeans"  # "kmeans" | "random" | "score"
    surrogate_variant: str = "analytic-shift"
    beta: float = 0.5
    radius: float = 1.0
    mixture_w: float | None = None  # None = pure surrogate; w in [0,1] mixes in the oracle
    hp: Hyperparams = field(default_factory=Hyperparams)
    critic_hidden: tuple = (64, 64)
    source_pool_size: int = 128
    memory_view: int = 64
    knowledge_budget: int = 5
    select_by_raw: bool = False

    @property
    def label(self) -> str:
        return f"leon[{self.engine}]" if self.method == "leon" else self.method


@dataclass
class RunResult:
    task: str
    method: str
    seed: int
    patient_id: str
    final_design: Design
    oracle_score: float
    lambda_trace: list[float]
    mu_trace: list[float]
    w1_trace: list[float]
    warnings: list[str]
    memory: TrajectoryMemory | None = None
    surrogate_calls: int = 0

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
    params = dict(cfg.engine_params)
    if cfg.engine == "random":
        return RandomEngine(seed=seed, **params)
    if cfg.engine == "boltzmann-memory":
        return BoltzmannMemoryEngine(seed=seed, **params)
    if cfg.engine == "hill-climb":
        return HillClimbEngine(seed=seed, **params)
    if cfg.engine == "chat-api":
        params.setdefault("model", "default")
        return ChatApiEngine(seed=seed, **params)
    raise ValueError(f"unknown engine {cfg.engine!r}; known: {ENGINES}")


def build_surrogate(task: Task, cfg: RunConfig, seed: int):
    base = make_surrogate(task, variant=cfg.surrogate_variant, seed=seed,
                          beta=cfg.beta, radius=cfg.radius)
    if cfg.mixture_w is None:
        return base
    return MixtureSurrogate(OracleSurrogate(task), base, cfg.mixture_w)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def select_final(memory: TrajectoryMemory, by_raw: bool = False) -> Design:
    """Entry with maximum stored score; ties break to higher raw value, then
    earliest step."""
    if len(memory) == 0:
        raise ValueError("empty memory")
    rows = memory.view()
    first, second = (rows.raw, rows.score) if by_raw else (rows.score, rows.raw)
    tied = np.flatnonzero(first == first.max())
    return rows.design(int(tied[np.argmax(second[tied])]))  # argmax: earliest row of a tie


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def run_leon(task: Task, cfg: RunConfig, seed: int, *, ctx: Context | None = None,
             sources=(), engine=None, surrogate=None, source_pool=None) -> RunResult:
    """One full optimization run for a single context.

    ceil(budget / batch) acquisition steps of: propose, evaluate the
    critic-regularized surrogate, assign classes, reduce to per-class
    optima, re-estimate mu, retrain the critic on the fresh batch, step
    lambda along the dual gradient, score and log the batch, reflect.
    Deterministic under mock engines and a fixed seed. The keyword
    overrides exist for controlled experiments and tests.

    The `score` partition cuts its bins around the source pool's raw
    values, so it scores the source pool in one surrogate call past the
    meter: those designs lie outside the budget and `surrogate_calls` does
    not count them.
    """
    hp = cfg.hp
    space = task.space
    rng_ctx = np.random.default_rng([seed, 1])
    if ctx is None:
        ctx = task.sample_context(rng_ctx, "target", id=f"t{seed}")
    if source_pool is None:
        rng_src = np.random.default_rng([seed, 2])
        source_pool = SourcePool(space, task.source_designs(rng_src, cfg.source_pool_size))
    if engine is None:
        engine = make_engine(cfg, derive_seed(seed, 3))
    if surrogate is None:
        surrogate = build_surrogate(task, cfg, derive_seed(seed, 4))
    metered = MeteredSurrogate(surrogate, hp.budget)
    critic = init_critic(space, hidden=cfg.critic_hidden, seed=derive_seed(seed, 5))
    lam, mu_hat = hp.lambda0, DEFAULT_MU
    memory = TrajectoryMemory(space, hp.budget)
    warnings: list[str] = []

    src_raw = None
    if cfg.partition == "score":  # bins are cut around the source raw values
        src_raw = (surrogate.value(source_pool.designs, ctx)
                   + hp.lambda0 * critic_values(critic, source_pool.encoded))
    partition = fit_partition(cfg.partition, source_pool, seed=derive_seed(seed, 6),
                              src_raw=src_raw)

    prompt_state = PromptState(
        knowledge="", reflection="", memory_view=memory.view(cfg.memory_view), context=ctx,
        task_description=task.description, task_name=task.name, space=space,
    )
    knowledge = generate_knowledge(engine, list(sources), prompt_state, cfg.knowledge_budget)
    prompt_state.knowledge = knowledge

    n_steps = int(np.ceil(hp.budget / hp.batch_size))
    lambda_trace, mu_trace, w1_trace = [], [], []
    reflection = ""

    for t in range(1, n_steps + 1):
        b = min(hp.batch_size, metered.remaining)
        prompt_state.reflection = reflection
        prompt_state.memory_view = memory.view(cfg.memory_view)
        designs, batch_enc = propose(engine, prompt_state, space, b)

        f_vals = metered.value(designs, ctx)
        c_vals = critic_values(critic, batch_enc)
        raw = f_vals + lam * c_vals
        assignments = partition.assign(designs, batch_enc, raw)

        stats = class_optima(raw, assignments, partition.n_classes)
        mu_hat = estimate_mu(stats, mu_hat, hp.mu_max)

        critic, src_c, batch_c = critic_train(critic, source_pool.encoded, batch_enc,
                                              lr=hp.eta_critic, seed=derive_seed(seed, 7, t))

        # the dual gradient reads the trained critic at each class's best row
        qbar = boltzmann_weights(stats, mu_hat)
        grad = dual_gradient(hp.w0, float(src_c.mean()), batch_c[stats.best_rows], qbar)
        w1_now = w1_estimate(src_c, batch_c)

        lambda_trace.append(lam)  # the value that scored this batch
        mu_trace.append(mu_hat)
        w1_trace.append(w1_now)

        scores = score_designs(raw, mu_hat)
        memory.append_batch(t, designs, raw, scores, assignments)

        if t < n_steps:
            reflection = reflect(engine, list(zip(designs, scores)), task.description)
        memory.add_trace(StepTrace(step=t, lam=lam, mu_hat=mu_hat,
                                   w1_estimate=w1_now, reflection=reflection if t < n_steps else ""))

        lam = update_lambda(lam, grad, hp.eta_lambda, t)
        warnings.extend(engine.warnings)
        engine.warnings.clear()

    final = select_final(memory, by_raw=cfg.select_by_raw)
    score = oracle_eval(task, final, ctx)
    return RunResult(
        task=task.name, method=cfg.label, seed=seed, patient_id=ctx.id,
        final_design=final, oracle_score=score, lambda_trace=lambda_trace,
        mu_trace=mu_trace, w1_trace=w1_trace, warnings=warnings, memory=memory,
        surrogate_calls=metered.calls,
    )


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def _log(memory, step, designs, values):
    """Log scored designs at one step; a baseline's raw value is its score."""
    memory.append_batch(step, designs, values, values, [0] * len(designs))


def _log_rows(memory, designs, values):
    """Log scored designs one step per row, numbering steps by row."""
    for d, v in zip(designs, values):
        _log(memory, len(memory), [d], [v])


def _random_search(task, metered, ctx, rng, memory, chunk):
    while metered.remaining > 0:
        designs = [random_design(task.space, rng) for _ in range(min(chunk, metered.remaining))]
        _log_rows(memory, designs, metered.value(designs, ctx))


def _simulated_annealing(task, metered, ctx, rng, memory):
    """Single chain with a geometric temperature schedule calibrated so the
    final temperature is 1% of the initial one."""
    space = task.space
    probes = [random_design(space, rng) for _ in range(min(64, metered.remaining))]
    vals = metered.value(probes, ctx)
    _log_rows(memory, probes, vals)
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
        cand_val = metered.value([cand], ctx)[0]
        _log_rows(memory, [cand], [cand_val])
        delta = cand_val - cur_val
        temp *= alpha
        if delta >= 0 or rng.random() < np.exp(delta / max(temp, 1e-300)):
            current, cur_val = cand, cand_val


def _single_dim_move(space, design, rng):
    i = int(rng.integers(len(space.dims)))
    dim = space.dims[i]
    vals = list(design.values)
    if isinstance(dim, ContinuousDim):
        width = dim.hi - dim.lo
        vals[i] = min(max(float(vals[i]) + rng.normal(0.0, 0.1 * width), dim.lo), dim.hi)
    else:
        vals[i] = not vals[i]
    return Design(tuple(vals))


def _surrogate_greedy(task, metered, ctx, rng, memory, lr=0.05, fd_step=1e-3, restarts=4):
    space = task.space
    continuous = all(isinstance(d, ContinuousDim) for d in space.dims)
    step = 0
    share = metered.budget // restarts
    for _ in range(restarts):
        allotment = min(share, metered.remaining)
        if allotment <= 0:
            break
        if continuous:
            step = _greedy_continuous(space, metered, ctx, rng, memory, allotment,
                                      lr, fd_step, step)
        else:
            step = _greedy_flip(space, metered, ctx, rng, memory, allotment, step)


def _greedy_continuous(space, metered, ctx, rng, memory, allotment, lr, fd_step, step):
    """Normalized-gradient ascent in encoded units with a 1/sqrt(k) decayed
    step, via central finite differences on the surrogate."""
    d = len(space.dims)
    u = np.array([rng.uniform(0.0, 1.0) for _ in range(d)])
    used = 0
    k = 1
    while used + 2 * d <= allotment and metered.remaining >= 2 * d:
        grad = np.zeros(d)
        probes, denoms = [], []
        for j in range(d):
            up, dn = u.copy(), u.copy()
            up[j] = min(u[j] + fd_step, 1.0)
            dn[j] = max(u[j] - fd_step, 0.0)
            probes += [decode_design(space, up), decode_design(space, dn)]
            denoms.append(up[j] - dn[j])
        vals = metered.value(probes, ctx)
        for j, denom in enumerate(denoms):
            _log(memory, step, probes[2 * j:2 * j + 2], vals[2 * j:2 * j + 2])
            step += 1
            grad[j] = (vals[2 * j] - vals[2 * j + 1]) / denom if denom > 0 else 0.0
        used += 2 * d
        norm = np.linalg.norm(grad)
        if norm > 0:
            u = np.clip(u + (lr / np.sqrt(k)) * grad / norm, 0.0, 1.0)
        k += 1
    return step


def _greedy_flip(space, metered, ctx, rng, memory, allotment, step):
    """Best-improvement single-flip hill climbing with random restarts."""
    current = random_design(space, rng)
    cur_val = metered.value([current], ctx)[0]
    _log(memory, step, [current], [cur_val])
    used = 1
    while used < allotment and metered.remaining > 0:
        n = min(len(space.dims), allotment - used, metered.remaining)
        cands = [_flip_dim(space, current, i) for i in range(n)]
        vals = metered.value(cands, ctx)
        _log(memory, step, cands, vals)
        used += n
        step += 1
        best = int(np.argmax(vals))  # first of the best flips
        if vals[best] <= cur_val:  # local optimum: restart
            if used >= allotment or metered.remaining == 0:
                break
            current = random_design(space, rng)
            cur_val = metered.value([current], ctx)[0]
            _log(memory, step, [current], [cur_val])
            used += 1
        else:
            current, cur_val = cands[best], vals[best]
    return step


def _flip_dim(space, design, i):
    if isinstance(space.dims[i], ContinuousDim):
        raise ValueError("flip move on a continuous dim")
    vals = list(design.values)
    vals[i] = not vals[i]
    return Design(tuple(vals))


def run_baseline(task: Task, variant: str, cfg: RunConfig, seed: int, *,
                 ctx: Context | None = None, surrogate=None) -> RunResult:
    """Random search, simulated annealing, or greedy surrogate ascent, all
    metered to the same budget and selecting the argmax-surrogate design."""
    if variant not in BASELINES:
        raise ValueError(f"unknown baseline {variant!r}; known: {BASELINES}")
    hp = cfg.hp
    rng = np.random.default_rng([seed, 40])
    if ctx is None:
        ctx = task.sample_context(np.random.default_rng([seed, 1]), "target", id=f"t{seed}")
    if surrogate is None:
        surrogate = build_surrogate(task, cfg, derive_seed(seed, 4))
    metered = MeteredSurrogate(surrogate, hp.budget)
    memory = TrajectoryMemory(task.space, hp.budget)

    if variant == "random-search":
        _random_search(task, metered, ctx, rng, memory, hp.batch_size)
    elif variant == "simulated-annealing":
        _simulated_annealing(task, metered, ctx, rng, memory)
    else:
        _surrogate_greedy(task, metered, ctx, rng, memory)

    final = select_final(memory, by_raw=True)
    score = oracle_eval(task, final, ctx)
    return RunResult(
        task=task.name, method=variant, seed=seed, patient_id=ctx.id,
        final_design=final, oracle_score=score, lambda_trace=[], mu_trace=[],
        w1_trace=[], warnings=[], memory=memory, surrogate_calls=metered.calls,
    )


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
    if n_patients < 1:
        raise ValueError("n_patients must be >= 1")
    rng = np.random.default_rng([seed, 0])
    contexts = [task.sample_context(rng, "target", id=f"p{i:03d}") for i in range(n_patients)]
    work = [
        (task, cfg, derive_seed(seed, i), ctx)
        for cfg in cfgs
        for i, ctx in enumerate(contexts)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one, work))
    else:
        records = [_run_one(w) for w in work]

    summaries = []
    means = []
    for mi, cfg in enumerate(cfgs):
        scores = np.array([r.oracle_score for r in records[mi * n_patients:(mi + 1) * n_patients]])
        mean = float(scores.mean())
        sem = float(scores.std(ddof=1) / np.sqrt(len(scores))) if len(scores) > 1 else 0.0
        summaries.append(MethodSummary(method=cfg.label, mean=mean, sem=sem, rank=0,
                                       n=n_patients, degenerate=n_patients == 1))
        means.append(mean)
    for s, m in zip(summaries, means):
        s.rank = 1 + sum(1 for other in means if other > m)
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
