import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import leon.cli
from leon.cli import (
    _HP_KEYS,
    _METHOD_FIELDS,
    _SURROGATE_FIELDS,
    _TOP_KEYS,
    ConfigError,
    main,
    parse_config,
)
from leon.core import Hyperparams
from leon.optimizer import RunConfig, evaluate_cohort
from leon.tasks import make_task
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
NO_SERVER = "http://127.0.0.1:1"  # a local port that refuses connections
README = Path(__file__).resolve().parents[1] / "README.md"


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(_config(extra_knob=1))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(_config(methods=[{"name": "leon", "llm": "x"}]))
    with pytest.raises(ConfigError, match="unknown keys"):  # a removed option
        parse_config(_config(methods=[{"name": "leon", "select_by_raw": True}]))


def test_readme_configs_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    for block in blocks:
        parse_config(json.loads(block))


def test_readme_key_table_matches_the_parser():
    """README's config table lists each key the parser takes, once, and
    no other."""
    documented = re.findall(r"^\| `([^`]+)` \|", README.read_text(encoding="utf-8"), re.M)
    assert len(documented) == len(set(documented))
    assert set(documented) == (_TOP_KEYS | {f"methods[].{k}" for k in _METHOD_FIELDS}
                               | {f"hyperparams.{k}" for k in _HP_KEYS}
                               | {f"surrogate.{k}" for k in _SURROGATE_FIELDS})


def test_readme_names_registered_commands():
    """Every `leon <command>` README.md shows, in a code line or inline
    code, is a command `leon` has."""
    named = set(re.findall(r"(?:^|`)leon ([\w-]+)", README.read_text(encoding="utf-8"), re.M))
    assert {"run", "verify", "dump-task"} <= named
    assert named <= set(main.commands), sorted(named - set(main.commands))


def test_parse_config_validates_fields():
    with pytest.raises(ConfigError):
        parse_config(_config(task="warfarin"))
    with pytest.raises(ConfigError):
        parse_config(_config(methods=[]))
    with pytest.raises(ConfigError):
        parse_config(_config(n_patients=0))
    with pytest.raises(ConfigError):
        parse_config(_config(methods=[{"name": "bayes-opt"}]))
    with pytest.raises(ConfigError, match=re.escape("weights[1] must be <= 1.0, got 1.5")):
        parse_config(_config(weights=[0, 1.5]))
    with pytest.raises(ConfigError):
        parse_config(_config(hyperparams={"budget": 8, "batch_size": 32}))


def test_leon_only_hyperparams_need_a_leon_method():
    """`lambda0`, `w0` and `eta_lambda` drive leon's loop only: a config
    with no leon method does not read them. `batch_size` and
    `budget` are shared."""
    leon_only = {"lambda0": 5, "w0": 0.1, "eta_lambda": 3}
    with pytest.raises(ConfigError, match=re.escape(
            "hyperparams: no leon method reads ['eta_lambda', 'lambda0', 'w0']")):
        parse_config(_config(hyperparams=leon_only))
    parse_config(_config(methods=[{"name": "random-search"}, {"name": "leon"}],
                         hyperparams=leon_only))
    parse_config(_config(hyperparams={"budget": 64, "batch_size": 32}))


def test_methods_with_one_label_are_a_config_error(tmp_path, monkeypatch):
    """Two methods with the same label would write records and summaries
    that cannot be told apart."""
    monkeypatch.chdir(tmp_path)
    for methods, clash in (([{"name": "leon", "partition": "kmeans"},
                             {"name": "random-search"},
                             {"name": "leon", "partition": "random"}],
                            "methods[0] and methods[2] share the label leon[boltzmann-memory]"),
                           ([{"name": "random-search"}, {"name": "random-search"}],
                            "methods[0] and methods[1] share the label random-search")):
        result = runner.invoke(main, ["run", "-c", _write(tmp_path, _config(methods=methods))])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"config error: {clash}, "), result.output
    assert not (tmp_path / "out").exists()
    parse_config(_config(methods=[{"name": "leon"}, {"name": "leon", "engine": "hill-climb"}]))


def test_config_error_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CHAT_API_BASE", raising=False)
    path = _write(tmp_path, _config(extra_knob=1))
    result = runner.invoke(main, ["run", "-c", path])
    assert result.exit_code == 2

    missing = runner.invoke(main, ["run", "-c", str(tmp_path / "nope.json")])
    assert missing.exit_code == 2

    # values that fail coercion or lie outside their range are config errors
    # too, caught before any run starts
    for bad in (_config(jobs="abc"),
                _config(methods=[{"name": "leon", "engine": "bogus"}]),
                _config(hyperparams={"budget": 64, "batch_size": 32, "rng_seed": 0}),
                # the critic is a transport potential: it has no net or learning rate
                _config(methods=[{"name": "leon", "critic_hidden": [64, 64]}]),
                _config(hyperparams={"budget": 64, "batch_size": 32, "eta_critic": 0.001}),
                _config(methods=[{"name": "leon", "knowledge_budget": -1}]),
                # integer fields take JSON integers in range: no bool, float or string
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
                _config(surrogate={"variant": "oracle"}),  # the oracle arm is `weights: [1]`
                # float fields take finite JSON numbers: no bool, string or NaN
                _config(surrogate={"variant": "analytic-shift", "beta": True}),
                _config(surrogate={"variant": "analytic-shift", "beta": float("nan")}),
                _config(surrogate={"variant": "analytic-shift", "radius": "2"}),
                _config(hyperparams={"budget": 64, "batch_size": 32, "w0": float("nan")}),
                # the engines' own `temp` / `temperature` are the only temperature
                _config(hyperparams={"budget": 64, "batch_size": 32, "temperature": 0.5}),
                _config(weights=["0.5"]),
                _config(weights={"0.5": 1}),
                # engine parameters build the engine at parse time
                _config(methods=[{"name": "leon", "engine_params": {"bogus": 1}}]),
                _config(methods=[{"name": "leon", "engine_params": 5}]),
                _config(methods=[{"name": "leon", "engine_params": {"seed": 5}}]),
                # ... and the engine checks the parameters' values
                _config(methods=[{"name": "leon", "engine_params": {"temp": "hot"}}]),
                # the mock engines' pool sizes and step are constants, even at their values
                _config(methods=[{"name": "leon", "engine_params": {"pool_size": 64}}]),
                _config(methods=[{"name": "leon", "engine_params": {"top_m": 8}}]),
                _config(methods=[{"name": "leon", "engine_params": {"explore_frac": 0.25}}]),
                _config(methods=[{"name": "leon", "engine": "hill-climb",
                                  "engine_params": {"step": 0.05}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "retry_wait": -1}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "max_retries": 2.5}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "max_retries": 0}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "temperature": "hot"}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "timeout": 0}}]),
                # a JSON integer too large for a float is no finite number,
                # for the engines' parameters as for every other float
                _config(methods=[{"name": "leon", "engine_params": {"temp": 10 ** 400}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "timeout": 10 ** 400}}]),
                # a chat engine with no endpoint would fill every proposal at random
                _config(methods=[{"name": "leon", "engine": "chat-api"}]),
                # mock engines retrieve no knowledge, so they take no knowledge knob
                _config(methods=[{"name": "leon", "engine_params": {"knowledge_stop_after": 1}}]),
                # no knowledge source reaches the CLI, so no knowledge budget either
                _config(methods=[{"name": "leon", "knowledge_budget": 3}]),
                # constants now, refused even at their old defaults
                _config(methods=[{"name": "leon", "source_pool_size": 128}]),
                _config(methods=[{"name": "leon", "memory_view": 64}]),
                _config(hyperparams={"budget": 64, "batch_size": 32, "mu_max": 100.0}),
                # the chat engine's strings: a number or a list is no URL, model or key
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": 5}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "api_key": ["k"]}}]),
                _config(methods=[{"name": "leon", "engine": "chat-api",
                                  "engine_params": {"endpoint": NO_SERVER, "model": None}}]),
                # a baseline has no engine, partition or memory: it takes only `name`
                _config(methods=[{"name": "random-search", "engine_params": {"nope": 1}}]),
                _config(methods=[{"name": "random-search", "engine": "chat-api"}]),
                _config(methods=[{"name": "surrogate-greedy", "partition": "score"}]),
                # only the analytic-shift surrogate reads beta and radius
                _config(surrogate={"variant": "learned", "beta": 0.7}),
                _config(surrogate={"variant": "learned", "radius": 3.0}),
                # only leon reads lambda0, w0 and eta_lambda
                _config(hyperparams={"budget": 64, "batch_size": 32, "w0": 0.1})):
        result = runner.invoke(main, ["run", "-c", _write(tmp_path, bad)])
        assert result.exit_code == 2, (bad, result.output)
        assert "config error" in result.output
        assert len(result.output) < 400, result.output  # no value is echoed in full
    assert not (tmp_path / "out").exists()

    # an integer past Python's 4,300-digit limit fails JSON decoding itself
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_config()).replace('"n_patients": 2', '"n_patients": ' + "1" * 5000),
                    encoding="utf-8")
    result = runner.invoke(main, ["run", "-c", str(huge)])
    assert result.exit_code == 2 and "config error" in result.output
    assert len(result.output) < 400, result.output


def test_output_dir_that_cannot_be_made_fails_before_any_run(tmp_path, monkeypatch):
    """An `output_dir` that names a file is a runtime failure (exit 1)
    found before the first cohort runs, not after the last."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").write_text("a file", encoding="utf-8")
    calls = []

    def cohort(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a cohort ran")

    monkeypatch.setattr(leon.cli, "evaluate_cohort", cohort)
    result = runner.invoke(main, ["run", "-c", _write(tmp_path, _config())])
    assert result.exit_code == 1
    assert result.output.startswith("run failed:")
    assert calls == []


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
    assert [g["mixture_w"] for g in payload["groups"]] == [None]  # no `weights`: one cohort
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
# mixture-weight sweep
# ---------------------------------------------------------------------------


def _mean_by_weight(tmp_path):
    """Each results.json group's mixture weight, in order, with the mean of
    its first method."""
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    return {g["mixture_w"]: g["summary"][0]["mean"] for g in payload["groups"]}


def test_run_sweeps_weights(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["run", "-c", _write(tmp_path, _config(weights=[0, 1]))])
    assert result.exit_code == 0, result.output
    assert list(_mean_by_weight(tmp_path)) == [0.0, 1.0]
    csv_w = {line.split(",")[2] for line in
             (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]}
    assert csv_w == {"0.0", "1.0"}


def test_run_reads_weights_key(tmp_path, monkeypatch):
    """Adding `weights` to a config turns its one `null` group into one full
    cohort per weight, and each weight reaches its cohort's surrogate."""
    monkeypatch.chdir(tmp_path)
    assert runner.invoke(main, ["run", "-c", _write(tmp_path, _config())]).exit_code == 0
    assert list(_mean_by_weight(tmp_path)) == [None]
    result = runner.invoke(main, ["run", "-c", _write(tmp_path, _config(weights=[0.0, 1.0]))])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert [len(g["records"]) for g in payload["groups"]] == [2, 2]
    by_w = _mean_by_weight(tmp_path)
    assert list(by_w) == [0.0, 1.0]
    assert by_w[0.0] != by_w[1.0]


def test_run_single_weight_matches_api(tmp_path, monkeypatch):
    """A one-entry sweep is the cohort the Python API runs with that
    `mixture_w`, and the group records the weight it ran."""
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["run", "-c", _write(tmp_path, _config(weights=[1.0]))])
    assert result.exit_code == 0, result.output
    by_w = _mean_by_weight(tmp_path)
    task = make_task({"name": "dose", "seed": 7})
    hp = Hyperparams(budget=64, batch_size=32)

    def api_mean(w):
        cfg = RunConfig(method="random-search", hp=hp, mixture_w=w)
        return evaluate_cohort(task, [cfg], 2, 7).summaries[0].mean

    assert list(by_w) == [1.0]
    assert by_w[1.0] == api_mean(1.0)
    assert by_w[1.0] != api_mean(None)  # the weight reached the surrogate


def test_run_no_shift_helps_greedy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _config(methods=[{"name": "surrogate-greedy"}], n_patients=4, weights=[0, 1],
                  hyperparams={"budget": 512, "batch_size": 32})
    result = runner.invoke(main, ["run", "-c", _write(tmp_path, cfg)])
    assert result.exit_code == 0, result.output
    by_w = _mean_by_weight(tmp_path)
    assert by_w[1.0] >= by_w[0.0]  # less shift helps the greedy baseline


def test_run_rejects_bad_weights(tmp_path, monkeypatch):
    """An empty sweep, a weight outside [0, 1] and the removed
    `surrogate.mixture_w` key are config errors, caught before any run."""
    monkeypatch.chdir(tmp_path)
    for bad in (_config(weights=[]), _config(weights=[0, 2]),
                _config(surrogate={"variant": "analytic-shift", "mixture_w": 1.0})):
        result = runner.invoke(main, ["run", "-c", _write(tmp_path, bad)])
        assert result.exit_code == 2, (bad, result.output)
        assert "config error" in result.output
        assert len(result.output) < 400, result.output  # no value is echoed in full
    assert not (tmp_path / "out").exists()

    # an integer past Python's 4,300-digit limit fails JSON decoding itself
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_config()).replace('"n_patients": 2', '"n_patients": ' + "1" * 5000),
                    encoding="utf-8")
    result = runner.invoke(main, ["run", "-c", str(huge)])
    assert result.exit_code == 2 and "config error" in result.output
    assert len(result.output) < 400, result.output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_command_passes():
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0, result.output
    assert result.output.count("[PASS]") == 7


def test_verify_mutation_canary(monkeypatch):
    # a shim that perturbs the class-weight formula must break the check
    from leon.certainty import boltzmann_weights

    def shifted(stats, mu):
        w = boltzmann_weights(stats, mu) + 0.1
        return w / w.sum()

    assert check_boltzmann_closed_form(seed=0, instances=5).passed
    monkeypatch.setattr("leon.verify.boltzmann_weights", shifted)
    assert not check_boltzmann_closed_form(seed=0, instances=5).passed


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
    assert "maximize" not in payload  # every method maximizes


def test_dump_task_rejects_unknown():
    result = runner.invoke(main, ["dump-task", "--task", "warfarin"])
    assert result.exit_code != 0


@pytest.mark.parametrize("args", [
    ["dump-task", "--task", "regimen", "--seed", "-1"],
    ["dump-task", "--task", "dose", "--seed", "-1"],
    ["verify", "--seed", "-1"],
], ids=["dump-regimen", "dump-dose", "verify"])
def test_negative_seed_is_a_usage_error(args):
    """A seed is >= 0 on the command line, as in a config's `task_seed`."""
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output and "Traceback" not in result.output
