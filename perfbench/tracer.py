"""Runtime instrumentation of the leon package, installed from outside.

Two kinds of wrappers replace module (or class) attributes of an imported
``leon`` and restore them on ``uninstall``; no source file changes.

``RunHooks`` is always on. It puts one clock pair around every
``run_method`` call, counts oracle calls per run and keeps the surrogate a
run built, so that the gate can replay the run with it.

``Tracer`` is on only in a traced run. It wraps the bindings through which
one layer of ``src/leon`` calls another and records one span per call:
(name, start, end, parent span, run id). Spans stay in memory and are
written out at exit; a layer's self time is its spans' durations minus the
durations of their child spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass

import numpy as np

LAYERS = ("optimizer", "proposal", "tasks", "critic", "equivalence", "certainty",
          "core", "numerics", "cli")


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        setattr(owner, attr, make_wrapper(original))
        self._saved.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Always-on run hooks
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RunRecord:
    """One ``run_method`` (or replay) call as the harness saw it."""

    task: object
    cfg: object
    seed: int
    ctx: object
    seconds: float = float("nan")
    result: object = None
    error: str | None = None
    oracle_calls: int = 0
    surrogate: object = None
    replay: bool = False

    @property
    def key(self):
        return (self.cfg.label, self.seed, self.ctx.id)


class RunHooks:
    def __init__(self, leon):
        self.leon = leon
        self.records: list[RunRecord] = []
        self.current: RunRecord | None = None
        self.on_run_start = None  # set by a Tracer to tag spans with run ids
        self._patcher = Patcher()

    def install(self):
        opt = self.leon.optimizer
        self._patcher.patch(opt, "run_method", self._wrap_run)
        self._patcher.patch(opt, "oracle_eval", self._wrap_oracle)
        if "build_surrogate" in vars(opt):  # without it, a replay builds its own
            self._patcher.patch(opt, "build_surrogate", self._wrap_build)

    def uninstall(self):
        self._patcher.restore()

    def _start(self, rec):
        self.current = rec
        if self.on_run_start is not None:
            self.on_run_start()

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def run_method(task, cfg, seed, *, ctx=None, sources=()):
            rec = RunRecord(task, cfg, seed, ctx)
            self._start(rec)
            t0 = time.perf_counter()
            try:
                rec.result = fn(task, cfg, seed, ctx=ctx, sources=sources)
            except Exception as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec.seconds = time.perf_counter() - t0
                self.records.append(rec)
                self.current = None
            return rec.result
        return run_method

    def _wrap_oracle(self, fn):
        @functools.wraps(fn)
        def oracle_eval(*args, **kwargs):
            if self.current is not None:
                self.current.oracle_calls += 1
            return fn(*args, **kwargs)
        return oracle_eval

    def _wrap_build(self, fn):
        @functools.wraps(fn)
        def build_surrogate(*args, **kwargs):
            surrogate = fn(*args, **kwargs)
            if self.current is not None:
                self.current.surrogate = surrogate
            return surrogate
        return build_surrogate

    def replay(self, rec: RunRecord) -> RunRecord:
        """Re-run a recorded run with the same seed, context and surrogate,
        through the optimizer's current (possibly traced) bindings."""
        opt = self.leon.optimizer
        again = RunRecord(rec.task, rec.cfg, rec.seed, rec.ctx, surrogate=rec.surrogate,
                          replay=True)
        self._start(again)
        t0 = time.perf_counter()
        try:
            if rec.cfg.method == "leon":
                again.result = opt.run_leon(rec.task, rec.cfg, rec.seed, ctx=rec.ctx,
                                            surrogate=rec.surrogate)
            else:
                again.result = opt.run_baseline(rec.task, rec.cfg.method, rec.cfg, rec.seed,
                                                ctx=rec.ctx, surrogate=rec.surrogate)
        except Exception as exc:  # noqa: BLE001 - a failed replay is a failed run
            again.error = f"{type(exc).__name__}: {exc}"
        finally:
            again.seconds = time.perf_counter() - t0
            self.records.append(again)
            self.current = None
        return again


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _forward_flops(net, n):
    return 2.0 * n * sum(l.weights.size for l in net.layers)


def _gradient_flops(net, n):
    # forward, dW per layer, and delta propagation into every layer but the first
    sizes = [l.weights.size for l in net.layers]
    return 2.0 * n * (2 * sum(sizes) + sum(sizes[1:]))


def _flops_forward(args, kwargs):
    net, X = args[0], args[1]
    return _forward_flops(net, np.atleast_2d(X).shape[0])


def _flops_weighted_gradient(args, kwargs):
    net, X = args[0], args[1]
    return _gradient_flops(net, np.atleast_2d(X).shape[0])


def _flops_gradient(args, kwargs):
    net, pos, neg = args[0], args[1], args[2]
    return _gradient_flops(net, np.atleast_2d(pos).shape[0] + np.atleast_2d(neg).shape[0])


def _encode_rows(args, kwargs):
    return len(args[1])


def _resolve(root, path):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


_ENCODE = ("core.encode", "core.encode_rows", _encode_rows)
_FORWARD = ("numerics.forward", "numerics.flop", _flops_forward)

# (owner under the leon package, attribute, span name[, counter, measure]):
# the bindings through which one layer of src/leon calls another. A span
# name of None counts calls without a span.
BINDINGS = (
    # cli -> tasks / optimizer / its own output
    ("cli", "load_config", "cli.load_config"),
    ("cli", "make_task", "tasks.make_task"),
    ("cli", "evaluate_cohort", "optimizer.evaluate_cohort"),
    ("cli", "_write_outputs", "cli.write"),
    # optimizer -> every lower layer
    ("optimizer", "make_task", "tasks.make_task"),
    ("optimizer", "run_method", "optimizer.run_method"),
    ("optimizer", "run_leon", "optimizer.run_leon"),
    ("optimizer", "run_baseline", "optimizer.run_baseline"),
    ("optimizer", "make_surrogate", "tasks.surrogate_build"),
    ("optimizer", "oracle_eval", "tasks.oracle"),
    ("optimizer", "init_critic", "critic.init"),
    ("optimizer", "critic_values", "critic.values"),
    ("optimizer", "w1_estimate", "critic.w1"),
    ("optimizer", "critic_train", "critic.train"),
    ("optimizer", "fit_partition", "equivalence.fit"),
    ("optimizer", "class_optima", "certainty.class_optima"),
    ("optimizer", "estimate_mu", "certainty.estimate_mu"),
    ("optimizer", "boltzmann_weights", "certainty.boltzmann_weights"),
    ("optimizer", "dual_gradient", "certainty.dual_gradient"),
    ("optimizer", "update_lambda", "certainty.update_lambda"),
    ("optimizer", "score_designs", "certainty.score_designs"),
    ("optimizer", "propose", "proposal.propose"),
    ("optimizer", "reflect", "proposal.reflect"),
    ("optimizer", "generate_knowledge", "proposal.knowledge"),
    ("optimizer", "random_design", "proposal.random_design"),
    ("optimizer", "decode_design", "core.decode"),
    ("core.TrajectoryMemory", "append_batch", "core.memory"),
    ("equivalence.KMeansPartition", "assign", "equivalence.assign"),
    ("equivalence.RandomPartition", "assign", "equivalence.assign"),
    ("equivalence.ScoreBinnedPartition", "assign", "equivalence.assign"),
    ("tasks.AnalyticShiftSurrogate", "value", "tasks.surrogate"),
    ("tasks.LearnedSurrogate", "value", "tasks.surrogate"),
    ("tasks.Task", "sample_context", "tasks.sample_context"),
    ("tasks.Task", "source_designs", "tasks.source_designs"),
    # lower layers -> core / numerics
    ("proposal", "encode_batch", *_ENCODE),
    ("critic", "encode_batch", *_ENCODE),
    ("tasks", "encode_batch", *_ENCODE),
    ("equivalence", "render_text", "core.render"),
    ("equivalence", "kmeans_fit", "numerics.kmeans_fit"),
    ("equivalence", "elbow_select_k", "numerics.elbow_select_k"),
    ("equivalence", "kmeans_assign", "numerics.kmeans_assign"),
    ("critic", "net_gradient", "numerics.critic_gradient", "numerics.flop", _flops_gradient),
    ("critic", "sgd_step", "numerics.sgd_step"),
    ("tasks", "net_weighted_gradient", "numerics.surrogate_gradient", "numerics.flop",
     _flops_weighted_gradient),
    ("critic", "net_forward_batch", *_FORWARD),
    ("tasks", "net_forward_batch", *_FORWARD),
    ("core.DesignSpace", "validate", None, "core.validate_calls"),
)


class Tracer:
    """Span recorder over the cross-layer bindings of one ``leon`` import."""

    def __init__(self, leon):
        self.leon = leon
        self.names: list[str] = []
        # One entry per span in each column. Flat arrays, not per-span
        # objects, so that a large trace does not slow the garbage collector.
        self.cols = {c: array("q") for c in ("name_id", "start_ns", "end_ns", "parent", "run_id")}
        self.counters: dict[str, float] = {}
        self.run_id = 0
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patcher = Patcher()
        self.missing: set[str] = set()

    def __len__(self):
        return len(self.cols["start_ns"])

    def new_run(self):
        self.run_id += 1

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, counter=None, measure=None):
        """Wrapper factory: one span per call; `measure(args, kwargs)` adds
        to `counter` when given."""
        nid = self._name_id(name)
        stack, counters = self._stack, self.counters
        cols = self.cols
        names, starts, ends, parents, runs = (cols[c] for c in cols)
        if counter:
            counters.setdefault(counter, 0.0)
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if counter:
                    counters[counter] += measure(args, kwargs)
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                runs.append(self.run_id)
                ends.append(0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
            return traced
        return make

    def call(self, name, fn, *args, **kwargs):
        """Run `fn` inside a span recorded from the benchmark itself."""
        return self._span(name)(fn)(*args, **kwargs)

    def _count(self, counter):
        counters = self.counters
        counters.setdefault(counter, 0.0)

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[counter] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def install(self):
        """Wrap every binding of BINDINGS that this leon has; the others are
        listed in `missing`, and their time stays with the caller."""
        for owner_path, attr, name, *count in BINDINGS:
            owner = _resolve(self.leon, owner_path)
            if owner is None or attr not in vars(owner):
                self.missing.add(f"{owner_path}.{attr}")
            elif name is None:
                self._patcher.patch(owner, attr, self._count(count[0]))
            else:
                self._patcher.patch(owner, attr, self._span(name, *count))

    def uninstall(self):
        self._patcher.restore()

    # -- analysis ---------------------------------------------------------

    def arrays(self, start=0, stop=None):
        """Spans[start:stop] as arrays; parents re-based to the slice (-1
        for a parent outside it)."""
        name_id, start_ns, end_ns, parent, run_id = (
            np.array(self.cols[c][start:stop], dtype=np.int64) for c in self.cols)
        parent = np.where(parent < start, -1, parent - start)
        return name_id, start_ns, end_ns, parent, run_id

    def write(self, path):
        name_id, start, end, parent, run = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start_ns=start, end_ns=end, parent=parent, run_id=run)


def self_times(name_id, start, end, parent):
    """Per-span self time in seconds: duration minus child durations."""
    dur = (end - start).astype(float) / 1e9
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur, dur - child


__all__ = ["LAYERS", "BINDINGS", "Patcher", "RunRecord", "RunHooks", "Tracer", "self_times"]
