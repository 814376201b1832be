"""Command-line harness.

`leon run` executes a cohort experiment from a strict JSON config, one
cohort per surrogate mixture weight when the config lists `weights`;
`leon verify` runs the brute-force verification checks, and `leon
dump-task` prints task constants. Exit codes: 0 success, 1 runtime
failure, 2 configuration error. With mock engines and a fixed seed,
outputs are byte-identical across reruns.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import click

from .core import Hyperparams
from .optimizer import BASELINES, ENGINES, RunConfig, evaluate_cohort, make_engine
from .tasks import SURROGATES, TASKS, make_task
from .verify import run_all_checks


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"task", "task_seed", "methods", "n_patients", "seed", "hyperparams",
             "surrogate", "output_dir", "weights", "jobs"}
_METHOD_KEYS = {"name", "engine", "engine_params", "partition", "critic_hidden",
                "source_pool_size", "memory_view"}
_HP_FLOATS = {"lambda0", "w0", "eta_lambda", "eta_critic", "mu_max"}
_HP_KEYS = _HP_FLOATS | {"batch_size", "budget"}
_SURROGATE_KEYS = {"variant", "beta", "radius"}


@dataclass
class ExperimentConfig:
    task: str
    methods: list[RunConfig]
    n_patients: int
    seed: int
    task_seed: int
    output_dir: Path
    weights: list[float] | None
    jobs: int


def _reject_unknown(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _int_at_least(value, lo: int, where: str) -> int:
    """A JSON integer (not a bool, float or string) no less than `lo`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value!r}")
    return value


def _finite(value, where: str, lo: float | None = None, hi: float | None = None) -> float:
    """A finite JSON number (an int or float, not a bool or string), within
    [lo, hi] where a bound is given."""
    # `abs(value) <= max float` is False for NaN, the infinities and
    # integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ConfigError(f"{where} must lie in [{lo}, {hi}], got {value!r}")
    return float(value)


def _hidden_sizes(value, where: str) -> tuple:
    """A non-empty list of positive layer widths."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of positive integers, got {value!r}")
    return tuple(_int_at_least(h, 1, f"{where}[{j}]") for j, h in enumerate(value))


def parse_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(obj, _TOP_KEYS, "config")
    task = obj.get("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {sorted(TASKS)}, got {task!r}")
    methods_spec = obj.get("methods")
    if not isinstance(methods_spec, list) or not methods_spec:
        raise ConfigError("methods must be a non-empty list")
    n_patients = _int_at_least(obj.get("n_patients", 1), 1, "n_patients")
    seed = _int_at_least(obj.get("seed", 0), 0, "seed")
    output_dir = obj.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

    hp_spec = obj.get("hyperparams", {})
    _reject_unknown(hp_spec, _HP_KEYS, "hyperparams")
    hp_spec = dict(hp_spec)
    for key in hp_spec:
        if key in _HP_FLOATS:
            hp_spec[key] = _finite(hp_spec[key], f"hyperparams.{key}")
        else:
            hp_spec[key] = _int_at_least(hp_spec[key], 1, f"hyperparams.{key}")
    try:
        hp = Hyperparams(**hp_spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hyperparams: {exc}") from exc

    sur_spec = obj.get("surrogate", {})
    _reject_unknown(sur_spec, _SURROGATE_KEYS, "surrogate")
    beta = _finite(sur_spec.get("beta", 0.5), "surrogate.beta")
    radius = _finite(sur_spec.get("radius", 1.0), "surrogate.radius")
    surrogate_variant = sur_spec.get("variant", "analytic-shift")
    if surrogate_variant not in SURROGATES:
        raise ConfigError(f"surrogate.variant must be one of {SURROGATES}")

    methods = []
    for i, m in enumerate(methods_spec):
        _reject_unknown(m, _METHOD_KEYS, f"methods[{i}]")
        name = m.get("name")
        if name != "leon" and name not in BASELINES:
            raise ConfigError(f"methods[{i}].name must be 'leon' or one of {BASELINES}")
        partition = m.get("partition", "kmeans")
        if partition not in ("kmeans", "random", "score"):
            raise ConfigError(f"methods[{i}].partition must be kmeans|random|score")
        engine = m.get("engine", "boltzmann-memory")
        if engine not in ENGINES:
            raise ConfigError(f"methods[{i}].engine must be one of {ENGINES}")
        engine_params = m.get("engine_params", {})
        if not isinstance(engine_params, dict):
            raise ConfigError(f"methods[{i}].engine_params must be a JSON object")
        cfg = RunConfig(
            method=name,
            engine=engine,
            engine_params=engine_params,
            partition=partition,
            surrogate_variant=surrogate_variant,
            beta=beta,
            radius=radius,
            hp=hp,
            critic_hidden=_hidden_sizes(m.get("critic_hidden", [64, 64]),
                                        f"methods[{i}].critic_hidden"),
            source_pool_size=_int_at_least(m.get("source_pool_size", 128), 1,
                                           f"methods[{i}].source_pool_size"),
            memory_view=_int_at_least(m.get("memory_view", 64), 1, f"methods[{i}].memory_view"),
        )
        if name == "leon":
            try:  # building an engine sends no request
                make_engine(cfg, seed=0)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"methods[{i}].engine_params: {exc}") from exc
        methods.append(cfg)

    weights = obj.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not weights:
            raise ConfigError(f"weights must be a non-empty list of numbers, got {weights!r}")
        weights = [_finite(w, f"weights[{j}]", 0.0, 1.0) for j, w in enumerate(weights)]
    return ExperimentConfig(
        task=task, methods=methods, n_patients=n_patients, seed=seed,
        task_seed=_int_at_least(obj.get("task_seed", seed), 0, "task_seed"),
        output_dir=Path(output_dir),
        weights=weights, jobs=_int_at_least(obj.get("jobs", 1), 1, "jobs"),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(obj)


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def _results_payload(cfg: ExperimentConfig, cohorts: list) -> dict:
    """cohorts: list of (mixture weight or None, CohortResult)."""
    groups = []
    for w, cohort in cohorts:
        groups.append({
            "mixture_w": w,
            "summary": [
                {"method": s.method, "mean": s.mean, "sem": s.sem, "rank": s.rank,
                 "n": s.n, "degenerate": s.degenerate}
                for s in cohort.summaries
            ],
            "records": [r.to_json() for r in cohort.records],
        })
    return {"task": cfg.task, "seed": cfg.seed, "n_patients": cfg.n_patients,
            "groups": groups}


def _tidy_csv(cfg: ExperimentConfig, cohorts: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["task", "method", "w", "patient", "seed", "oracle_score",
                     "step", "lambda", "mu", "w1"])
    for w, cohort in cohorts:
        w_cell = "" if w is None else repr(float(w))
        for r in cohort.records:
            if r.lambda_trace:
                for step, (lam, mu, w1) in enumerate(
                        zip(r.lambda_trace, r.mu_trace, r.w1_trace), start=1):
                    writer.writerow([r.task, r.method, w_cell, r.patient_id, r.seed,
                                     repr(float(r.oracle_score)), step,
                                     repr(float(lam)), repr(float(mu)), repr(float(w1))])
            else:
                writer.writerow([r.task, r.method, w_cell, r.patient_id, r.seed,
                                 repr(float(r.oracle_score)), "", "", "", ""])
    return buf.getvalue()


def _write_outputs(cfg: ExperimentConfig, cohorts: list) -> None:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    payload = _results_payload(cfg, cohorts)
    (cfg.output_dir / "results.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (cfg.output_dir / "summary.csv").write_text(_tidy_csv(cfg, cohorts), encoding="utf-8")


def _print_ranking(cohorts: list) -> None:
    for w, cohort in cohorts:
        header = f"task={cohort.task}" + ("" if w is None else f" w={w}")
        click.echo(header)
        click.echo(f"{'method':<28} {'mean':>12} {'sem':>10} {'rank':>5}")
        for s in cohort.summaries:
            click.echo(f"{s.method:<28} {s.mean:>12.4f} {s.sem:>10.4f} {s.rank:>5}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Entropy-guided constrained black-box optimization harness."""


@main.command("run")
@click.option("-c", "--config", "config_path", required=True, type=click.Path())
def cmd_run(config_path):
    """Run every configured method over a cohort of target contexts, once
    per mixture weight in the config's `weights`."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    try:
        task = make_task({"name": cfg.task, "seed": cfg.task_seed})
        cohorts = []
        for w in cfg.weights or [None]:
            methods = [replace(m, mixture_w=w) for m in cfg.methods]
            cohorts.append((w, evaluate_cohort(task, methods, cfg.n_patients,
                                               cfg.seed, jobs=cfg.jobs)))
        _write_outputs(cfg, cohorts)
        _print_ranking(cohorts)
    except Exception as exc:  # noqa: BLE001
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


@main.command("verify")
@click.option("--seed", type=int, default=0)
def cmd_verify(seed):
    """Brute-force verification checks with fixed seeds."""
    results = run_all_checks(seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.name} ({r.seconds:.1f}s): {r.detail}")
    if failed:
        click.echo(f"{len(failed)} check(s) failed: {', '.join(r.name for r in failed)}")
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed")
    sys.exit(0)


@main.command("dump-task")
@click.option("--task", "task_name", required=True, type=click.Choice(sorted(TASKS)))
@click.option("--seed", type=int, default=0)
def cmd_dump_task(task_name, seed):
    """Print task constants as JSON for audit."""
    task = make_task({"name": task_name, "seed": seed})
    click.echo(json.dumps(task.to_json(), sort_keys=True, indent=2))
    sys.exit(0)


if __name__ == "__main__":
    main()
