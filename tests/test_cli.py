import json

import numpy as np
import pytest
from click.testing import CliRunner

from leon.cli import ConfigError, main, parse_config
from leon.verify import check_boltzmann_closed_form


def _config(**overrides):
    cfg = {
        "task": "dose",
        "methods": [{"name": "random-search"}],
        "n_patients": 2,
        "seed": 7,
        "hyperparams": {"budget": 64, "batch_size": 32},
        "surrogate": {"variant": "analytic-shift", "beta": 0.5},
        "output_dir": "out",
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


runner = CliRunner()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(_config(extra_knob=1))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(_config(methods=[{"name": "leon", "llm": "x"}]))


def test_parse_config_validates_fields():
    with pytest.raises(ConfigError):
        parse_config(_config(task="warfarin"))
    with pytest.raises(ConfigError):
        parse_config(_config(methods=[]))
    with pytest.raises(ConfigError):
        parse_config(_config(n_patients=0))
    with pytest.raises(ConfigError):
        parse_config(_config(methods=[{"name": "bayes-opt"}]))
    with pytest.raises(ConfigError):
        parse_config(_config(weights=[1.5]))
    with pytest.raises(ConfigError):
        parse_config(_config(hyperparams={"budget": 8, "batch_size": 32}))


def test_config_error_exit_code(tmp_path):
    path = _write(tmp_path, _config(extra_knob=1))
    result = runner.invoke(main, ["run", "-c", path])
    assert result.exit_code == 2

    missing = runner.invoke(main, ["run", "-c", str(tmp_path / "nope.json")])
    assert missing.exit_code == 2

    # values that fail coercion or lie outside their range are config errors
    # too, caught before any run starts
    for bad in (_config(jobs="abc"),
                _config(methods=[{"name": "leon", "source_pool_size": "x"}]),
                _config(surrogate={"variant": "analytic-shift", "mixture_w": 2}),
                _config(methods=[{"name": "leon", "engine": "bogus"}]),
                _config(hyperparams={"budget": 64, "batch_size": 32, "rng_seed": 0}),
                _config(methods=[{"name": "leon", "critic_hidden": "ab"}]),
                _config(methods=[{"name": "leon", "critic_hidden": [0]}]),
                _config(methods=[{"name": "leon", "critic_hidden": [-3, 4]}]),
                _config(methods=[{"name": "leon", "critic_hidden": []}]),
                _config(methods=[{"name": "leon", "memory_view": 0}]),
                _config(methods=[{"name": "leon", "memory_view": -1}]),
                _config(methods=[{"name": "leon", "source_pool_size": 0}]),
                _config(methods=[{"name": "leon", "knowledge_budget": -1}]),
                _config(methods=[{"name": "leon", "select_by_raw": "no"}]),
                # integer fields take JSON integers in range: no bool, float or string
                _config(methods=[{"name": "leon", "source_pool_size": 12.9}]),
                _config(methods=[{"name": "leon", "memory_view": True}]),
                _config(methods=[{"name": "leon", "knowledge_budget": 2.5}]),
                _config(jobs=2.7),
                _config(jobs=-3),
                _config(task_seed="3"),
                _config(n_patients=True),
                _config(seed=-1),
                _config(hyperparams={"budget": 64, "batch_size": 32.5}),
                _config(hyperparams={"budget": 64.0, "batch_size": 32}),
                # wrong types and unknown variants
                _config(output_dir=5),
                _config(hyperparams=5),
                _config(methods=[5]),
                _config(surrogate={"variant": "bogus"}),
                # float fields take finite JSON numbers: no bool, string or NaN
                _config(surrogate={"variant": "analytic-shift", "beta": True}),
                _config(surrogate={"variant": "analytic-shift", "beta": float("nan")}),
                _config(surrogate={"variant": "analytic-shift", "radius": "2"}),
                _config(surrogate={"variant": "analytic-shift", "mixture_w": float("inf")}),
                _config(hyperparams={"budget": 64, "batch_size": 32, "eta_critic": True}),
                _config(hyperparams={"budget": 64, "batch_size": 32, "w0": float("nan")}),
                # the engines' own `temp` / `temperature` are the only temperature
                _config(hyperparams={"budget": 64, "batch_size": 32, "temperature": 0.5}),
                _config(weights=["0.5"]),
                _config(weights={"0.5": 1}),
                # engine parameters build the engine at parse time
                _config(methods=[{"name": "leon", "engine_params": {"bogus": 1}}]),
                _config(methods=[{"name": "leon", "engine_params": 5}]),
                # ... and the engine checks the parameters' values
                _config(methods=[{"name": "leon", "engine_params": {"temp": "hot"}}]),
                _config(methods=[{"name": "leon", "engine_params": {"pool_size": -1}}]),
                _config(methods=[{"name": "leon", "engine_params": {"top_m": 2.5}}]),
                _config(methods=[{"name": "leon", "engine_params": {"explore_frac": 1.5}}]),
                _config(methods=[{"name": "leon", "engine": "hill-climb",
                                  "engine_params": {"step": 0}}]),
                # no knowledge source reaches the CLI, so no knowledge budget either
                _config(methods=[{"name": "leon", "knowledge_budget": 3}])):
        result = runner.invoke(main, ["run", "-c", _write(tmp_path, bad)])
        assert result.exit_code == 2, (bad, result.output)
        assert "config error" in result.output


def test_weights_key_belongs_to_ablate_shift(tmp_path, monkeypatch):
    """`leon run` has no mixture weights to sweep, so it rejects the key;
    `leon ablate-shift` reads it."""
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _config(weights=[0.0, 1.0]))
    result = runner.invoke(main, ["run", "-c", path])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output and "ablate-shift" in result.output
    assert not (tmp_path / "out").exists()
    result = runner.invoke(main, ["ablate-shift", "-c", path])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert [g["mixture_w"] for g in payload["groups"]] == [0.0, 1.0]


def test_run_has_no_jobs_flag(tmp_path):
    """The config's validated `jobs` is the only parallelism setting."""
    result = runner.invoke(main, ["run", "-c", _write(tmp_path, _config()), "--jobs", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_minimal_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _config())
    result = runner.invoke(main, ["run", "-c", path])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert len(payload["groups"][0]["records"]) == 2
    csv_lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert csv_lines[0] == "task,method,w,patient,seed,oracle_score,step,lambda,mu,w1"


def test_run_two_methods_ranked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(methods=[{"name": "random-search"}, {"name": "surrogate-greedy"}],
                  hyperparams={"budget": 128, "batch_size": 32})
    result = runner.invoke(main, ["run", "-c", _write(tmp_path, cfg)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    ranks = sorted(row["rank"] for row in payload["groups"][0]["summary"])
    assert ranks == [1, 2]


def test_run_byte_identical_reruns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(methods=[{"name": "leon", "engine": "boltzmann-memory"},
                           {"name": "random-search"}])
    path = _write(tmp_path, cfg)
    assert runner.invoke(main, ["run", "-c", path]).exit_code == 0
    first = (tmp_path / "out" / "results.json").read_bytes()
    first_csv = (tmp_path / "out" / "summary.csv").read_bytes()
    assert runner.invoke(main, ["run", "-c", path]).exit_code == 0
    assert (tmp_path / "out" / "results.json").read_bytes() == first
    assert (tmp_path / "out" / "summary.csv").read_bytes() == first_csv


def test_leon_records_have_traces(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(methods=[{"name": "leon"}], n_patients=1)
    assert runner.invoke(main, ["run", "-c", _write(tmp_path, cfg)]).exit_code == 0
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    record = payload["groups"][0]["records"][0]
    assert len(record["lambda_trace"]) == 2  # 64-budget / 32-batch
    csv_text = (tmp_path / "out" / "summary.csv").read_text()
    assert csv_text.count("leon[boltzmann-memory]") == 2  # one row per step


# ---------------------------------------------------------------------------
# ablate-shift
# ---------------------------------------------------------------------------


def test_ablate_two_weights(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(methods=[{"name": "random-search"}])
    result = runner.invoke(main, ["ablate-shift", "-c", _write(tmp_path, cfg),
                                  "--weights", "0,1"])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert [g["mixture_w"] for g in payload["groups"]] == [0.0, 1.0]


def test_ablate_no_shift_helps_greedy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(methods=[{"name": "surrogate-greedy"}], n_patients=4,
                  hyperparams={"budget": 512, "batch_size": 32})
    result = runner.invoke(main, ["ablate-shift", "-c", _write(tmp_path, cfg),
                                  "--weights", "0,1"])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    by_w = {g["mixture_w"]: g["summary"][0]["mean"] for g in payload["groups"]}
    assert by_w[1.0] >= by_w[0.0]  # less shift helps the greedy baseline


def test_ablate_requires_weights(tmp_path):
    result = runner.invoke(main, ["ablate-shift", "-c", _write(tmp_path, _config())])
    assert result.exit_code == 2


def test_ablate_rejects_bad_weights(tmp_path):
    for weights in ("0,2", "abc"):
        result = runner.invoke(main, ["ablate-shift", "-c", _write(tmp_path, _config()),
                                      "--weights", weights])
        assert result.exit_code == 2, (weights, result.output)
        assert "config error" in result.output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_command_passes():
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0, result.output
    assert result.output.count("[PASS]") == 7


def test_verify_mutation_canary():
    # a shim that perturbs the class-weight formula must break the check
    def shifted(stats, mu):
        from leon.certainty import boltzmann_weights

        w = boltzmann_weights(stats, mu) + 0.1
        return w / w.sum()

    result = check_boltzmann_closed_form(seed=0, instances=5, weights_fn=shifted)
    assert not result.passed


# ---------------------------------------------------------------------------
# dump-task
# ---------------------------------------------------------------------------


def test_dump_task_emits_constants():
    result = runner.invoke(main, ["dump-task", "--task", "dose"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["name"] == "dose"
    assert payload["dims"][0]["name"] == "Dose"
    assert "g_weights" in payload["params"]


def test_dump_task_rejects_unknown():
    result = runner.invoke(main, ["dump-task", "--task", "warfarin"])
    assert result.exit_code != 0
