"""Correctness gate for benchmark runs, and the exact oracle optimum that
``leon_regret`` is measured against.

``ExactOracle`` evaluates a task's oracle from the task's published
constants (``task.params``), vectorized and independent of ``Task.oracle``:
the dose optimum is closed form, the regimen optimum comes from scoring all
2^n designs. ``ExactOracle.self_check`` compares both against
``task.oracle`` on random designs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np


class ExactOracle:
    def __init__(self, task):
        p = task.params
        self.task = task
        self.kind = task.kind
        if self.kind == "quadratic-dose":
            dim = task.space.dims[0]
            self._lo, self._hi = dim.lo, dim.hi
            self._g_w = np.asarray(p["g_weights"], dtype=float)
            self._g_bias = float(p["g_bias"])
        elif self.kind == "binary-regimen":
            self._W = np.asarray(p["w_matrix"], dtype=float)
            self._w0 = np.asarray(p["w_bias"], dtype=float)
            Q = np.asarray(p["q_matrix"], dtype=float)
            n = self._W.shape[0]
            self._bits = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
            self._quad = ((self._bits @ Q) * self._bits).sum(axis=1)
            self._Q = Q
        else:
            raise ValueError(f"no exact oracle for task kind {self.kind!r}")

    def values(self, design_values, ctx) -> np.ndarray:
        """Oracle values of a list of design value tuples."""
        z = np.asarray(ctx.features, dtype=float)
        X = np.array(design_values, dtype=float).reshape(len(design_values), -1)
        if self.kind == "quadratic-dose":
            g = self._g_bias + self._g_w @ z
            return -((X[:, 0] - g) ** 2)
        w = self._W @ z + self._w0
        return X @ w + ((X @ self._Q) * X).sum(axis=1)

    def optimum(self, ctx) -> tuple[float, tuple]:
        """(optimal value, optimal design values) for one context."""
        z = np.asarray(ctx.features, dtype=float)
        if self.kind == "quadratic-dose":
            g = self._g_bias + float(self._g_w @ z)
            x = min(max(g, self._lo), self._hi)
            return -((x - g) ** 2), (x,)
        vals = self._bits @ (self._W @ z + self._w0) + self._quad
        i = int(np.argmax(vals))
        return float(vals[i]), tuple(bool(b) for b in self._bits[i])

    def self_check(self, design_cls, seed: int, n_ctx: int = 4, n_designs: int = 64) -> list[str]:
        """Problems found comparing against ``task.oracle``; empty if none."""
        rng = np.random.default_rng([seed, 77])
        problems = []
        for i in range(n_ctx):
            ctx = self.task.sample_context(rng, "target", id=f"check{i}")
            if self.kind == "quadratic-dose":
                designs = [(float(x),) for x in rng.uniform(self._lo, self._hi, n_designs)]
            else:
                designs = [tuple(bool(b) for b in row)
                           for row in rng.integers(0, 2, (n_designs, self._W.shape[0]))]
            ours = self.values(designs, ctx)
            theirs = np.array([self.task.oracle(design_cls(d), ctx) for d in designs])
            if not np.allclose(ours, theirs, rtol=1e-12, atol=1e-9):
                problems.append(f"oracle mismatch on context {i}")
            best, best_design = self.optimum(ctx)
            if not math.isclose(self.task.oracle(design_cls(best_design), ctx), best,
                                rel_tol=1e-12, abs_tol=1e-9):
                problems.append(f"optimum value is not the oracle at the optimum on context {i}")
            if best < theirs.max() - 1e-9:
                problems.append(f"a random design beats the optimum on context {i}")
        return problems


def digest(result) -> str:
    """Digest of a run's results record (what ``results.json`` stores)."""
    blob = json.dumps(result.to_json(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def surrogate_digest(obj) -> str:
    """Digest of a surrogate's parameters, arrays included in full."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(o.tobytes())
        elif dataclasses.is_dataclass(o):
            h.update(type(o).__name__.encode())
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        elif isinstance(o, (list, tuple)):
            for x in o:
                feed(x)
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def check_run(rec, budget: int, exact: ExactOracle) -> str | None:
    """First reason the run fails, or None."""
    if rec.error is not None:
        return f"raised {rec.error}"
    r = rec.result
    if r.surrogate_calls != budget:
        return f"spent {r.surrogate_calls} surrogate calls, budget {budget}"
    if r.memory is None or len(r.memory) != budget:
        return f"logged {0 if r.memory is None else len(r.memory)} designs, budget {budget}"
    if rec.oracle_calls != 1:
        return f"made {rec.oracle_calls} oracle calls"
    if not math.isfinite(r.oracle_score):
        return f"non-finite oracle score {r.oracle_score}"
    ours = float(exact.values([r.final_design.values], rec.ctx)[0])
    if not math.isclose(ours, r.oracle_score, rel_tol=1e-9, abs_tol=1e-9):
        return f"oracle score {r.oracle_score} != independent oracle {ours}"
    best, _ = exact.optimum(rec.ctx)
    if r.oracle_score > best + 1e-9:
        return f"oracle score {r.oracle_score} above the exact optimum {best}"
    return None


def gate(records, budget: int, exact: ExactOracle) -> dict:
    """Failure reason per record index. Every run key needs at least two
    runs (a same-seed repetition) and all of them must share one digest;
    surrogates built from one seed must be identical."""
    failures = {}
    groups: dict[tuple, list[int]] = {}
    builds: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        reason = check_run(rec, budget, exact)
        if reason is not None:
            failures[i] = reason
        groups.setdefault(rec.key, []).append(i)
        if not rec.replay:
            builds.setdefault(rec.seed, []).append(i)
    # runs sharing a run seed build their surrogates from the same seed
    for idx in builds.values():
        if len({surrogate_digest(records[i].surrogate) for i in idx}) > 1:
            for i in idx:
                failures.setdefault(i, "same-seed surrogate builds differ")
    for key, idx in groups.items():
        if len(idx) < 2:
            failures.setdefault(idx[0], "no same-seed repetition")
            continue
        digests = {digest(records[i].result) for i in idx if records[i].error is None}
        if len(digests) > 1:
            for i in idx:
                failures.setdefault(i, f"results differ across {len(idx)} same-seed runs")
    return failures


def check_results_file(payload: dict, cohort_records) -> str | None:
    """The CLI's results.json must hold exactly the captured runs."""
    groups = payload.get("groups", [])
    if len(groups) != 1:
        return f"results.json has {len(groups)} groups, expected 1"
    written = groups[0]["records"]
    expected = [json.loads(json.dumps(rec.result.to_json())) for rec in cohort_records]
    if written != expected:
        return "results.json records differ from the runs the harness observed"
    return None


__all__ = ["ExactOracle", "digest", "surrogate_digest", "check_run", "gate",
           "check_results_file"]
