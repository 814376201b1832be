"""Command-line harness.

`leon run` executes a cohort experiment from a strict JSON config, one
cohort per surrogate mixture weight when the config lists `weights`;
`leon verify` runs the brute-force verification checks, and `leon
dump-task` prints task constants. Exit codes: 0 success, 1 runtime
failure, 2 configuration error. With mock engines and a fixed seed,
outputs are byte-identical across reruns.

`parse_config` checks only the JSON's shape (unknown keys, keys that no
run reads, an object or a list where one is expected) and maps it onto
`Hyperparams`, `RunConfig` and `ExperimentConfig`, which check their own
values; their errors become a `ConfigError` that names the config's
place, `methods[1]: ...`. A baseline takes only `name`, only leon reads
`lambda0`, `w0` and `eta_lambda`, and only the `analytic-shift` surrogate
reads `beta` and `radius`.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import click

from .core import Hyperparams, read_float, read_int, short_repr
from .optimizer import BASELINES, RunConfig, evaluate_cohort
from .tasks import TASKS, make_task
from .verify import run_all_checks


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"task", "task_seed", "methods", "n_patients", "seed", "hyperparams",
             "surrogate", "output_dir", "weights", "jobs"}
_LEON_HP_KEYS = {"lambda0", "w0", "eta_lambda"}  # the rest are shared
_HP_KEYS = _LEON_HP_KEYS | {"batch_size", "budget"}
# JSON key -> RunConfig field
_METHOD_FIELDS = {"name": "method", "engine": "engine", "engine_params": "engine_params",
                  "partition": "partition"}
_SURROGATE_FIELDS = {"variant": "surrogate_variant", "beta": "beta", "radius": "radius"}


@dataclass
class ExperimentConfig:
    """A cohort experiment, checked at construction: `task` one of TASKS,
    at least one method and no two with the same label (their results
    could not be told apart), integer `n_patients` and `jobs` of at least 1
    and `seed` and `task_seed` of at least 0, a string or path `output_dir`,
    and `weights` None or a non-empty list of numbers in [0, 1], each its
    cohort's `mixture_w`."""

    task: str
    methods: list[RunConfig]
    n_patients: int
    seed: int
    task_seed: int
    output_dir: Path
    weights: list[float] | None
    jobs: int

    def __post_init__(self):
        if self.task not in sorted(TASKS):
            raise ValueError(f"task must be one of {sorted(TASKS)}, got {short_repr(self.task)}")
        if not self.methods:
            raise ValueError("methods must be a non-empty list")
        first: dict[str, int] = {}
        for i, m in enumerate(self.methods):
            j = first.setdefault(m.label, i)
            if j != i:
                raise ValueError(f"methods[{j}] and methods[{i}] share the label {m.label}, "
                                 "so their results could not be told apart")
        self.n_patients = read_int(self.n_patients, "n_patients", 1)
        self.seed = read_int(self.seed, "seed", 0)
        self.task_seed = read_int(self.task_seed, "task_seed", 0)
        self.jobs = read_int(self.jobs, "jobs", 1)
        if not isinstance(self.output_dir, (str, Path)):
            raise ValueError(f"output_dir must be a string, got {short_repr(self.output_dir)}")
        self.output_dir = Path(self.output_dir)
        if self.weights is not None:
            if not isinstance(self.weights, list) or not self.weights:
                raise ValueError(f"weights must be a non-empty list of numbers, "
                                 f"got {short_repr(self.weights)}")
            self.weights = [read_float(w, f"weights[{i}]", 0.0, 1.0)
                            for i, w in enumerate(self.weights)]


def _object(value, where: str, allowed) -> dict:
    """`value`, a JSON object with no key outside `allowed`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {short_repr(value)}")
    unknown = value.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return value


def _build(where: str | None, make, *args, **kwargs):
    """`make(*args, **kwargs)`, its ValueError or TypeError raised as a
    ConfigError that names `where`."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def parse_config(obj) -> ExperimentConfig:
    _object(obj, "config", _TOP_KEYS)
    hp_spec = _object(obj.get("hyperparams", {}), "hyperparams", _HP_KEYS)
    hp = _build("hyperparams", Hyperparams, **hp_spec)
    surrogate = _object(obj.get("surrogate", {}), "surrogate", _SURROGATE_FIELDS)
    # every method shares the surrogate keys, so they are checked once, as such
    shared = _build("surrogate", RunConfig, hp=hp,
                    **{_SURROGATE_FIELDS[k]: v for k, v in surrogate.items()})
    if shared.surrogate_variant != "analytic-shift" and surrogate.keys() - {"variant"}:
        raise ConfigError(f"surrogate: {shared.surrogate_variant} takes only variant, "
                          f"got {sorted(surrogate)}")
    methods_spec = obj.get("methods")
    if not isinstance(methods_spec, list):
        raise ConfigError(f"methods must be a non-empty list, got {short_repr(methods_spec)}")
    methods = []
    for i, m in enumerate(methods_spec):
        where = f"methods[{i}]"
        _object(m, where, _METHOD_FIELDS)
        if m.get("name") in BASELINES and m.keys() - {"name"}:
            raise ConfigError(f"{where}: {m['name']} takes only name, got {sorted(m)}")
        spec = {_METHOD_FIELDS[k]: v for k, v in m.items()}
        methods.append(_build(where, replace, shared, **{"method": None, **spec}))
    unread = sorted(hp_spec.keys() & _LEON_HP_KEYS)
    if unread and all(m.method != "leon" for m in methods):
        raise ConfigError(f"hyperparams: no leon method reads {unread}")
    seed = obj.get("seed", 0)
    return _build(None, ExperimentConfig, task=obj.get("task"), methods=methods,
                  n_patients=obj.get("n_patients", 1), seed=seed,
                  task_seed=obj.get("task_seed", seed), output_dir=obj.get("output_dir", "."),
                  weights=obj.get("weights"), jobs=obj.get("jobs", 1))


def load_config(path: str) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # bad JSON, or an integer of over 4,300 digits
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


def _tidy_csv(cohorts: list) -> str:
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
    payload = _results_payload(cfg, cohorts)
    (cfg.output_dir / "results.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (cfg.output_dir / "summary.csv").write_text(_tidy_csv(cohorts), encoding="utf-8")


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
        cfg.output_dir.mkdir(parents=True, exist_ok=True)  # fails before any run, not after
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
@click.option("--seed", type=click.IntRange(min=0), default=0)
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
@click.option("--seed", type=click.IntRange(min=0), default=0)
def cmd_dump_task(task_name, seed):
    """Print task constants as JSON for audit."""
    task = make_task({"name": task_name, "seed": seed})
    click.echo(json.dumps(task.to_json(), sort_keys=True, indent=2))
    sys.exit(0)


if __name__ == "__main__":
    main()
