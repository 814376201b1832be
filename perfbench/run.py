"""Benchmark of leon: cohort experiments driven in-process through `leon run`.

Usage, from the repository root:

    python3 perfbench/run.py --workload dose-kmeans --seed 1 --seconds 10 --trace 0

A run times whole cohorts (the workload's `leon run` config) until
`--seconds` have passed, checks every run it timed, and prints one JSON
line last: the end-to-end metrics of BENCHMARK.json with `--trace 0`, the
per-layer metrics with `--trace 1`. A traced run wraps leon's cross-layer
bindings at runtime and writes its spans to .perfbench_out/. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import functools
import gc
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# A second timed cohort, needed as a same-seed repetition, runs whenever it
# should end within this many seconds; otherwise the gate replays the runs
# (which skips surrogate training, the bulk of a dose-learned cohort).
REPEAT_WINDOW_S = 30.0
# untraced/traced replay pairs behind trace.overhead_s
OVERHEAD_PAIRS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


@dataclass
class Cohort:
    wall: float
    exit_code: int
    records: list
    peak_rss_mb: float
    span_start: int = 0
    span_stop: int = 0
    counters: dict = field(default_factory=dict)
    problem: str | None = None


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Running cohorts
# ---------------------------------------------------------------------------


def invoke_cli(cli, config_path: Path) -> tuple[int, str]:
    """`leon run -c CONFIG` in this process; (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            cli.main.main(["run", "-c", str(config_path)], standalone_mode=False)
        except SystemExit as exc:
            return int(exc.code or 0), err.getvalue()
    return 0, err.getvalue()


def setup_times(root: Path, config_path: Path, n: int) -> list[float]:
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
                             cwd=root, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_cohorts(cli, config_path, hooks, tracer, seconds, results_path, check_results):
    """Timed cohorts until `seconds` pass (at least one, and two when the
    second fits in REPEAT_WINDOW_S)."""
    cohorts = []
    begin = time.perf_counter()
    while True:
        # Start each cohort from the same collector state: the records kept
        # so far are frozen, so the cohort's collections do not walk them.
        gc.collect()
        gc.freeze()
        first = len(hooks.records)
        spans0 = len(tracer) if tracer is not None else 0
        counters0 = dict(tracer.counters) if tracer is not None else {}
        t0 = time.perf_counter()
        if tracer is not None:
            code, err = tracer.call("cli.run", invoke_cli, cli, config_path)
        else:
            code, err = invoke_cli(cli, config_path)
        wall = time.perf_counter() - t0
        c = Cohort(wall=wall, exit_code=code, records=hooks.records[first:],
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            c.span_start, c.span_stop = spans0, len(tracer)
            c.counters = {k: v - counters0.get(k, 0.0) for k, v in tracer.counters.items()}
        if code != 0:
            c.problem = f"leon run exited {code}: {err.strip()[-300:]}"
        else:
            c.problem = check_results(json.loads(results_path.read_text()), c.records)
        cohorts.append(c)
        if code != 0:
            return cohorts
        nxt = time.perf_counter() - begin + wall
        if not (nxt <= seconds or (len(cohorts) < 2 and nxt <= REPEAT_WINDOW_S)):
            return cohorts


def replay(hooks, records) -> float:
    """Replay `records` once each; the seconds taken."""
    t0 = time.perf_counter()
    for r in records:
        hooks.replay(r)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def leon_ratios(records) -> dict:
    leon = [r.result for r in records if r.cfg.method == "leon" and r.result is not None]
    evaluated = sum(len(r.memory) for r in leon)
    distinct = sum(len({e.design.values for e in r.memory.entries}) for r in leon)
    steps = sum(len(r.lambda_trace) for r in leon)
    active = sum(sum(1 for lam in r.lambda_trace if lam > 0) for r in leon)
    classes = []
    for r in leon:
        per_step: dict[int, set] = {}
        for e in r.memory.entries:
            per_step.setdefault(e.step, set()).add(e.class_id)
        classes.extend(len(s) for s in per_step.values())
    return {
        "proposal.distinct_frac": distinct / evaluated,
        "critic.lambda_active_frac": active / steps,
        "equivalence.classes_per_step": statistics.fmean(classes),
    }


def layer_metrics(np, tracer, cohort, layers, self_times) -> dict:
    name_id, start, end, parent, _ = tracer.arrays(cohort.span_start, cohort.span_stop)
    dur, own = self_times(name_id, start, end, parent)
    names = np.array(tracer.names)[name_id]
    layer = np.array([n.split(".")[0] for n in tracer.names])[name_id]

    def incl(*which):
        return float(dur[np.isin(names, which)].sum())

    def count(which):
        return float((names == which).sum())

    leon_s = incl("optimizer.run_leon")
    m = {
        "equivalence.assign_s": incl("equivalence.assign"),
        "equivalence.assign_calls": count("equivalence.assign"),
        "equivalence.fit_s": incl("equivalence.fit"),
        "critic.train_s": incl("critic.train"),
        "critic.train_calls": count("critic.train"),
        "critic.train_iters": count("numerics.critic_gradient"),
        "critic.values_s": incl("critic.values", "critic.w1"),
        "core.encode_s": incl("core.encode"),
        "core.encode_rows": cohort.counters.get("core.encode_rows", 0.0),
        "core.validate_calls": cohort.counters.get("core.validate_calls", 0.0),
        "proposal.propose_s": incl("proposal.propose"),
        "proposal.reflect_s": incl("proposal.reflect"),
        "tasks.surrogate_build_s": incl("tasks.surrogate_build"),
        "tasks.surrogate_s": incl("tasks.surrogate"),
        "tasks.surrogate_evals": count("tasks.surrogate"),
        "numerics.gradient_s": incl("numerics.critic_gradient", "numerics.surrogate_gradient"),
        "numerics.gflop": cohort.counters.get("numerics.flop", 0.0) / 1e9,
        "certainty.update_s": float(dur[layer == "certainty"].sum()),
        "optimizer.loop_self_s": float(own[names == "optimizer.run_leon"].sum()),
        "optimizer.baseline_s": incl("optimizer.run_baseline"),
        "cli.write_s": incl("cli.write"),
        "equivalence.leon_share": (incl("equivalence.assign", "equivalence.fit") / leon_s
                                   if leon_s > 0 else 0.0),
        "tasks.surrogate_build_share": incl("tasks.surrogate_build") / cohort.wall,
        "trace.spans": float(len(names)),
    }
    for lay in layers:
        m[f"self.{lay}_s"] = float(own[layer == lay].sum())
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budget and cohort, for the benchmark's own tests")
    return ap.parse_args(argv)


def import_leon(root: Path):
    src = root / "src"
    if not (src / "leon" / "__init__.py").is_file():
        raise BenchError(f"no leon sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import leon
    import leon.cli
    import leon.optimizer  # noqa: F401  (the submodules the tracer wraps)

    if src.resolve() not in Path(leon.__file__).resolve().parents:
        raise BenchError(f"imported leon from {leon.__file__}, not from {src}")
    return leon


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        spec = json.loads(spec_path.read_text())
        leon = import_leon(root)
    except (OSError, ValueError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    from gate import ExactOracle, check_results_file, gate
    from tracer import LAYERS, RunHooks, Tracer, Patcher, self_times
    from workloads import WORKLOADS, make_config

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    config = make_config(args.workload, args.seed, str(out / "cohort"), smoke=args.smoke)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    budget = config["hyperparams"]["budget"]

    probes = setup_times(root, config_path, SETUP_PROBES)
    smoke_patch = Patcher()
    if args.smoke:  # a learned surrogate small enough for a test
        smoke_patch.patch(leon.tasks, "make_learned_surrogate",
                          lambda fn: functools.partial(fn, n_train=64, hidden=(16, 16), iters=20))
    hooks = RunHooks(leon)
    hooks.install()
    tracer = Tracer(leon) if args.trace else None
    if tracer is not None:
        tracer.install()
        hooks.on_run_start = tracer.new_run

    results_path = out / "cohort" / "results.json"
    cohorts = run_cohorts(leon.cli, config_path, hooks, tracer, args.seconds, results_path,
                          check_results_file)
    timed = [r for c in cohorts for r in c.records]
    first = cohorts[0].records

    replay_s = {"untraced": [], "traced": []}
    counts = collections.Counter(r.key for r in timed)
    if tracer is not None and first:  # overhead: one patient's runs untraced, then traced
        sample = [r for r in first if r.ctx.id == first[0].ctx.id]
        for _ in range(OVERHEAD_PAIRS):
            tracer.uninstall()
            replay_s["untraced"].append(replay(hooks, sample))
            tracer.install()
            replay_s["traced"].append(replay(hooks, sample))
        tracer.uninstall()
        tracer.write(out / "spans.npz")
        counts.update(r.key for r in sample)
    replay(hooks, [r for r in first if counts[r.key] < 2])
    hooks.uninstall()
    smoke_patch.restore()

    # built after the timed cohorts, so that its arrays stay out of peak_rss_mb
    exact = ExactOracle(leon.cli.make_task({"name": config["task"], "seed": config["seed"]}))
    problems = [f"exact-oracle self-check: {p}"
                for p in exact.self_check(leon.core.Design, seed=args.seed)]
    failures = gate(hooks.records, budget, exact)
    index = {id(r): i for i, r in enumerate(hooks.records)}
    for c in cohorts:
        if c.problem:
            problems.append(c.problem)
            for r in c.records:
                failures.setdefault(index[id(r)], c.problem)
    attempted = len(hooks.records)
    ok_cohorts = [c for c in cohorts if c.exit_code == 0]

    metrics = {}
    leon_runs = [r.seconds for r in timed if r.cfg.method == "leon" and r.error is None]
    if ok_cohorts and leon_runs:
        leon_first = [r for r in first if r.cfg.method == "leon"]
        metrics.update({
            "setup_s": statistics.median(probes),
            "cohort_s": statistics.median(c.wall for c in ok_cohorts),
            "leon_run_s": statistics.median(leon_runs),
            "peak_rss_mb": cohorts[0].peak_rss_mb,
            "leon_regret": statistics.fmean(
                exact.optimum(r.ctx)[0] - r.result.oracle_score for r in leon_first),
        })
        if tracer is not None:
            # every per-layer figure from one cohort, the one of median wall time,
            # so that they add up
            typical = sorted(ok_cohorts, key=lambda c: c.wall)[(len(ok_cohorts) - 1) // 2]
            metrics.update(layer_metrics(np, tracer, typical, LAYERS, self_times))
            metrics.update(leon_ratios(first))
            metrics["trace.cohort_s"] = typical.wall
            metrics["trace.overhead_s"] = statistics.median(
                t - u for u, t in zip(replay_s["untraced"], replay_s["traced"]))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(np),
        "config": config,
        "samples": {"setup_probes": probes, "cohort_walls": [c.wall for c in cohorts],
                    "leon_runs": leon_runs, "replays_s": replay_s},
        "attempted": attempted, "failed": len(failures),
        "failures": [f"{hooks.records[i].key}: {why}" for i, why in sorted(failures.items())],
        "problems": problems, "metrics": metrics,
        "untraced_bindings": sorted(tracer.missing) if tracer is not None else [],
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n")

    env = report["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(cohorts)} cohorts, {len(leon_runs)} leon runs, {attempted} runs checked, "
          f"{len(failures)} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s: median of {len(probes)} fresh-interpreter set-ups; cohort_s: median of "
          f"{len(ok_cohorts)} cohorts; leon_run_s: median of {len(leon_runs)} runs "
          f"(min {min(leon_runs, default=float('nan')):.4f}, "
          f"max {max(leon_runs, default=float('nan')):.4f})")
    if report["untraced_bindings"]:
        print(f"bindings not found, left untraced: {report['untraced_bindings']}")
    for line in report["failures"][:20] + problems:
        print(f"FAILED {line}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"MISSING metrics {missing}")
    result = {
        "correct": not failures and not problems and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
