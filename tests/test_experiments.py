import ast
import csv
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from reverb import cli, control, schemes
from reverb.config import RunConfig, config_from_dict, load_config
from reverb.errors import ConfigError, InputError
from reverb.metrics import compute_metrics
from reverb.recordio import (
    _INT_COLUMNS,
    _STR_COLUMNS,
    EPISODE_COLUMNS,
    EpisodeRecord,
    write_episode_csv,
    write_summary_csv,
)
from reverb.runner import apply_sweep_point, monte_carlo, sweep_values
from reverb.schemes import make_policy, run_episode


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


def small_cfg(**overrides):
    base = RunConfig(qi_cap=60, **overrides)
    return base


def config_to_dict(cfg: RunConfig) -> dict:
    """The config as plain mappings and lists, as a config file holds it."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def read_episode_csv(path, scheme: str = "", seed: int = 0) -> EpisodeRecord:
    record = EpisodeRecord(scheme=scheme, seed=seed)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != EPISODE_COLUMNS:
            raise ValueError(f"unexpected episode CSV header: {header}")
        for row in reader:
            values = []
            for col, cell in zip(EPISODE_COLUMNS, row):
                if col in _STR_COLUMNS:
                    values.append(tuple(int(i) for i in cell.split(";")) if cell else ())
                elif col in _INT_COLUMNS:
                    values.append(int(cell))
                else:
                    values.append(float(cell))
            record.append(tuple(values))
    return record


def read_summary_csv(path) -> list[dict]:
    """Read a summary CSV back; numeric cells become ints/floats losslessly."""
    rows: list[dict] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for raw in reader:
            row = {}
            for col, cell in zip(header, raw):
                try:
                    row[col] = int(cell)
                except ValueError:
                    try:
                        row[col] = float(cell)
                    except ValueError:
                        row[col] = cell
            rows.append(row)
    return rows


# --- configuration -----------------------------------------------------------


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"episodes": 3, "nope": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"channel": {"bogus_field": 2.0}})


def test_config_round_trip(tmp_path):
    cfg = RunConfig(episodes=7, cap=4, scripted_accuracy=(123.0, 456.0))
    data = config_to_dict(cfg)
    clone = config_from_dict(json.loads(json.dumps(data)))
    assert clone == cfg
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(data))
    assert load_config(path) == cfg


def test_shipped_example_config_loads():
    path = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"
    assert load_config(path) == RunConfig()
    # The example spells out every declared field and nothing else, section by section.
    example = yaml.safe_load(path.read_text())
    declared = config_to_dict(RunConfig())
    assert example.keys() == declared.keys()
    for section in ("channel", "fleet", "control"):
        assert example[section].keys() == declared[section].keys(), section


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(scheme="Nope")
    with pytest.raises(ConfigError):
        RunConfig(cap=0)


def test_sweep_parsing():
    assert sweep_values("C:1..5") == ("C", [1, 2, 3, 4, 5])
    assert sweep_values("aol:2..3") == ("aol", [2, 3])
    with pytest.raises(InputError):
        sweep_values("x:1..5")
    with pytest.raises(InputError):
        sweep_values("C:5..1")
    assert apply_sweep_point(RunConfig(), "C", 3).cap == 3
    assert apply_sweep_point(RunConfig(), "aol", 7).aol_thresholds == (7, 7)


# --- schemes -----------------------------------------------------------------


def test_perfect_scheme_zero_error_zero_prbs(cfg):
    record = run_episode(cfg, "Perfect", make_policy(cfg), seed=5)
    assert record.total_prbs == 0
    assert record.mean_error_norm == 0.0
    assert all(c == 0.0 for c in record.columns["cov_pos"])
    assert record.failure_count == 0


def test_cb_greedy_saturates_cap():
    cfg = small_cfg()
    cfg = dataclasses.replace(cfg, cap=cfg.fleet.n_agents)
    record = run_episode(cfg, "CB-Greedy", make_policy(cfg), seed=5)
    assert all(n == cfg.fleet.n_agents for n in record.columns["n_selected"])


def test_reverb_goes_blind_when_targets_are_loose():
    cfg = small_cfg(
        required_var=(1e6, 1e6),
        scripted_accuracy=(0.0, 0.0),
        aol_thresholds=(1_000_000, 1_000_000),
    )
    record = run_episode(cfg, "AoL-REVERB", make_policy(cfg), seed=5)
    assert all(n == 0 for n in record.columns["n_selected"])
    assert record.total_prbs == 0


def test_traditional_uses_fixed_pair():
    cfg = small_cfg()
    record = run_episode(cfg, "Traditional", make_policy(cfg), seed=5)
    assert set(record.columns["selected"]) == {"0;1"}


def test_traditional_belief_is_raw_observation():
    cfg = small_cfg()
    record = run_episode(cfg, "Traditional", make_policy(cfg), seed=6)
    # delivered intervals pin the belief variance at the fixed sensors' noise
    cov_pos = np.array(record.columns["cov_pos"])
    assert np.all(cov_pos > 1e-4)  # raw sensor noise, never the fused level


def test_episode_rows_match_interval_count(cfg):
    record = run_episode(cfg, "AoL-REVERB", make_policy(cfg), seed=9)
    for col in EPISODE_COLUMNS:
        assert len(record.columns[col]) == record.qis


# --- metrics -----------------------------------------------------------------


def hand_record(scheme, rows):
    rec = EpisodeRecord(scheme=scheme, seed=0)
    for r in rows:
        rec.append(tuple(r[c] for c in EPISODE_COLUMNS))
    return rec


def base_row(**over):
    row = dict(
        qi=0, true_pos=0.0, true_vel=0.0, belief_pos=0.0, belief_vel=0.0,
        cov_pos=1e-4, cov_vel=1e-4, target_pos=0.01, target_vel=0.002,
        n_selected=0, selected=(), delivered=(), prbs=0, age_pos=1, age_vel=1,
        reward=0.0, force=0.0, eta_pos=0.0, eta_vel=0.0, failed=0,
    )
    row.update(over)
    return row


def test_metrics_single_interval_error():
    rec = hand_record("AoL-REVERB", [base_row(true_pos=0.1, belief_pos=0.0)])
    out = compute_metrics([rec])
    assert out.mrmse == pytest.approx(0.1)


def test_metrics_two_episode_hand_aggregation():
    # episode 1: errors 0.1 and 0.3 -> mean 0.2; episode 2: error 0.4
    rec1 = hand_record(
        "AoL-REVERB",
        [
            base_row(true_pos=0.1, prbs=2, n_selected=1, failed=1),
            base_row(qi=1, true_pos=0.3, prbs=3, n_selected=2),
        ],
    )
    rec1.reached_goal = True
    rec2 = hand_record("AoL-REVERB", [base_row(true_vel=0.4, prbs=5, n_selected=3)])
    out = compute_metrics([rec1, rec2])
    assert out.mrmse == pytest.approx((0.2 + 0.4) / 2.0)
    assert out.mean_total_prbs == pytest.approx((5 + 5) / 2.0)
    assert out.failure_prob == pytest.approx(1.0 / 3.0)
    assert out.mean_selected == pytest.approx((1 + 2 + 3) / 3.0)
    assert out.success_rate == pytest.approx(0.5)
    assert out.mean_qis == pytest.approx(1.5)
    assert out.selected_cdf == {1: pytest.approx(1 / 3), 2: pytest.approx(2 / 3), 3: pytest.approx(1.0)}


def test_monte_carlo_single_episode_matches(cfg):
    summary, records = monte_carlo(cfg, 1, scheme="Perfect")
    assert summary.episodes == 1
    assert summary.mean_qis == records[0].qis
    assert summary.mean_total_prbs == records[0].total_prbs


def test_monte_carlo_deterministic(cfg):
    s1, _ = monte_carlo(cfg, 3, scheme="AoL-REVERB")
    s2, _ = monte_carlo(cfg, 3, scheme="AoL-REVERB")
    assert s1 == s2


# --- persistence -------------------------------------------------------------


def test_episode_csv_round_trip(tmp_path, cfg):
    record = run_episode(cfg, "AoL-REVERB", make_policy(cfg), seed=12)
    path = tmp_path / "episode_0.csv"
    write_episode_csv(record, path)
    back = read_episode_csv(path, scheme=record.scheme, seed=record.seed)
    for col in EPISODE_COLUMNS:
        assert back.columns[col] == record.columns[col]


def test_bad_row_rejected():
    rec = EpisodeRecord()
    row = tuple(base_row().values())
    for bad in ((0,), row[:-1], row + (0,)):
        with pytest.raises(ValueError, match="bad row"):
            rec.append(bad)
    assert len(rec) == 0 and rec.columns == {c: [] for c in EPISODE_COLUMNS}


def test_columns_view_shows_rows_appended_after_a_read():
    rec = hand_record("AoL-REVERB", [base_row(selected=(3, 5), delivered=(5,), n_selected=2)])
    first = rec.columns
    assert first["selected"] == ["3;5"] and first["delivered"] == ["5"] and first["qi"] == [0]
    assert rec.columns is first  # kept until the next append
    rec.append(tuple(base_row(qi=1, selected=(7,), delivered=(), n_selected=1, prbs=4).values()))
    again = rec.columns
    assert again["qi"] == [0, 1] and again["selected"] == ["3;5", "7"] and again["delivered"] == ["5", ""]
    assert again["prbs"] == [0, 4] and rec.qis == 2 and rec.total_prbs == 4


def eager_columns(rows):
    """Every column of ``rows`` built at once, the id tuples joined into ``;``-separated text."""
    return {
        c: [";".join(map(str, row[j])) if c in ("selected", "delivered") else row[j] for row in rows]
        for j, c in enumerate(EPISODE_COLUMNS)
    }


def test_lazily_joined_columns_equal_the_eager_dict():
    rows = [
        base_row(qi=0, selected=(3, 5, 11), delivered=(5,), n_selected=3, prbs=7),
        base_row(qi=1, selected=(), delivered=(), n_selected=0),
        base_row(qi=2, selected=(0,), delivered=(0,), n_selected=1, failed=1),
    ]
    want = eager_columns([tuple(r[c] for c in EPISODE_COLUMNS) for r in rows])
    # Read as a whole, one text column first, or only the numeric columns the metrics read.
    whole = hand_record("AoL-REVERB", rows)
    assert whole.columns == want and dict(whole.columns) == want and list(whole.columns) == list(EPISODE_COLUMNS)
    one_first = hand_record("AoL-REVERB", rows)
    assert one_first.columns["delivered"] == ["5", "", "0"]
    assert dict(one_first.columns) == want
    numeric = hand_record("AoL-REVERB", rows)
    assert numeric.total_prbs == 7 and numeric.failure_count == 1
    assert compute_metrics([numeric]) == compute_metrics([whole])
    assert dict(numeric.columns) == want
    # Rows appended after a read show up in the next read, text columns included.
    numeric.append(tuple(base_row(qi=3, selected=(4, 2), delivered=(2,), n_selected=2).values()))
    assert numeric.columns["selected"] == ["3;5;11", "", "0", "4;2"]
    assert dict(numeric.columns) == eager_columns(numeric.rows)


def test_summary_csv_round_trip(tmp_path):
    rows = [
        {"scheme": "Perfect", "episodes": 3, "mrmse": 0.12345678901234567},
        {"scheme": "AoL-REVERB", "episodes": 3, "mrmse": 3.3e-5},
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    assert read_summary_csv(path) == rows


def test_requested_accuracy_tightens_targets():
    # the controller's accuracy request must reach the scheduler as a bound
    cfg = small_cfg(scripted_accuracy=(10000.0, 0.0))
    record = run_episode(cfg, "AoL-REVERB", make_policy(cfg), seed=3)
    assert all(t == pytest.approx(1e-4) for t in record.columns["target_pos"])
    assert all(t == pytest.approx(cfg.required_var[1]) for t in record.columns["target_vel"])


# --- CLI ---------------------------------------------------------------------


def test_cli_run_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["run", "--scheme", "Perfect", "--seed", "7", "--out", str(out)]) == 0
    assert (out1 / "episode_0.csv").read_bytes() == (out2 / "episode_0.csv").read_bytes()


def test_cli_unknown_scheme_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scheme", "Bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_cli_bad_config_returns_1(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("episodes: 3\nunknown_key: 1\n")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_cli_bench_writes_summaries(tmp_path):
    code = cli.main([
        "bench", "--scheme", "Perfect", "--episodes", "2", "--seed", "3",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "summary.csv").exists()
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload[0]["scheme"] == "Perfect"
    assert payload[0]["mean_total_prbs"] == 0.0


def test_cli_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REVERB_SEED", "7")
    out1 = tmp_path / "env"
    assert cli.main(["run", "--scheme", "Perfect", "--out", str(out1)]) == 0
    monkeypatch.delenv("REVERB_SEED")
    out2 = tmp_path / "flag"
    assert cli.main(["run", "--scheme", "Perfect", "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "episode_0.csv").read_bytes() == (out2 / "episode_0.csv").read_bytes()


def test_cli_sweep_spec_error(tmp_path):
    assert cli.main(["bench", "--sweep", "Q:1..3", "--episodes", "1", "--out", str(tmp_path)]) == 1


def assert_one_error_line(capsys, fragment):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0], err


def test_cli_non_integer_env_seed_returns_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REVERB_SEED", "abc")
    assert cli.main(["run", "--scheme", "Perfect", "--out", str(tmp_path)]) == 1
    assert_one_error_line(capsys, "REVERB_SEED")


@pytest.mark.parametrize(
    "setting, fragment",
    [
        ("cap: 2.5", "cap must be an integer"),  # would act as a different cap
        ("fleet: {n_agents: 20.5}", "fleet.n_agents must be an integer"),
        ("required_var: [0.01]", "required_var needs one entry per state feature"),
        ("aol_thresholds: [5, 5, 5]", "aol_thresholds needs one entry per state feature"),
        ("scripted_accuracy: [4000.0]", "scripted_accuracy needs one entry per state feature"),
        ("process_noise_var: [1.0e-6, 1.0e-6, 1.0e-6]", "process_noise_var needs one entry"),
        ("required_var: [0.01, abc]", "required_var must be a number"),
        ("required_var: 0.01", "required_var must be a list"),
        ("fleet: {tx_power_w: 1.0e-9}", "theta="),  # infeasible link, theta far below 1
        ("init_belief_var: abc", "init_belief_var must be a number"),
        ("fleet: {tx_power_w: abc}", "fleet.tx_power_w must be a number"),
        ("channel: {rician_k: abc}", "channel.rician_k must be a number"),
        ("fleet: {max_distance_m: abc}", "fleet.max_distance_m must be a number"),
        ("fleet: {noise_var_ranges: [[1.0e-3]]}", "fleet.noise_var_ranges must be a list of [lo, hi] pairs"),
        ("fleet: {noise_var_ranges: [[1.0e-3, .inf], [2.0e-4, 4.0e-3]]}", "noise_var_ranges must be finite"),
        ("fleet: {noise_var_ranges: [[.nan, 1.0e-3], [2.0e-4, 4.0e-3]]}", "noise_var_ranges must be finite"),
        ("required_var: [.nan, 0.002]", "required_var must be finite"),  # ran with no position target
        ("scripted_accuracy: [.inf, 1.0e+4]", "scripted_accuracy must be finite"),
        ("process_noise_var: [.nan, 1.0e-6]", "process_noise_var must be finite"),
        ("init_belief_var: -1.0", "init_belief_var must be finite and strictly positive"),
        ("init_belief_var: .nan", "init_belief_var must be finite and strictly positive"),
        ("cap: [1, 2", "is not valid YAML"),
        ("seed: -1", "seed must be nonnegative"),
        ("control: {input_scale: [1.0]}", "control.input_scale needs one entry per state feature"),
        ("fleet: {max_distance_m: .nan}", "fleet.max_distance_m must be finite and strictly positive"),
        ("channel: {noise_power_dbm: .nan}", "channel.noise_power_dbm must be finite, got nan"),
        ("channel: {system_gain: .inf}", "channel.system_gain must be finite and strictly positive"),
        # sqrt(2 K) overflows: once "fading threshold must be positive", naming no key
        ("channel: {rician_k: 1.0e+308}", "channel.rician_k must leave the fading threshold finite"),
        # Knobs that were removed: an old config naming one fails loudly.
        ("control: {optimizer: adam}", "unknown config key 'control.optimizer'"),
        ("control: {shaping: accuracy_bonus}", "unknown config key 'control.shaping'"),
        ("control: {advantage_norm: true}", "unknown config key 'control.advantage_norm'"),
        ("control: {entropy_coef: 0.0}", "unknown config key 'control.entropy_coef'"),
        ("traditional_sensors: 2", "unknown config key 'traditional_sensors'"),
        # The learner's recipe, now constants of ``control``, as the old example config set it.
        ("control: {hidden: [64, 64]}", "unknown config key 'control.hidden'"),
        ("control: {lr_actor: 1.0e-3}", "unknown config key 'control.lr_actor'"),
        ("control: {lr_critic: 1.0e-3}", "unknown config key 'control.lr_critic'"),
        ("control: {clip: 0.2}", "unknown config key 'control.clip'"),
        ("control: {gamma: 0.99}", "unknown config key 'control.gamma'"),
        ("control: {epochs: 10}", "unknown config key 'control.epochs'"),
        ("control: {minibatch: 64}", "unknown config key 'control.minibatch'"),
        ("control: {init_log_std: 0.5}", "unknown config key 'control.init_log_std'"),
        ("control: {explore_floor: -0.75}", "unknown config key 'control.explore_floor'"),
        ("control: {explore_frac: 0.5}", "unknown config key 'control.explore_frac'"),
    ],
)
def test_cli_malformed_config_returns_1(tmp_path, capsys, setting, fragment):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(setting + "\n")
    argv = ["run", "--scheme", "AoL-REVERB", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, fragment)


@pytest.mark.parametrize(
    "flag, text, fragment",
    [
        ("--config", "seed: " + "[" * 5000 + "]" * 5000, "is not valid YAML: nested too deeply"),
        ("--weights", "[" * 5000 + "]" * 5000, "is not valid JSON: nested too deeply"),
    ],
    ids=["config", "weights"],
)
def test_cli_deeply_nested_file_returns_1(tmp_path, capsys, flag, text, fragment):
    # Deeper than the parser's recursion allows: once a RecursionError traceback.
    path = tmp_path / "deep"
    path.write_text(text + "\n")
    argv = ["run", "--scheme", "Perfect", flag, str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, f"{path} {fragment}")


@pytest.mark.parametrize(
    "exc, fragment",
    [
        (MemoryError("Unable to allocate 14.6 TiB for an array"), "out of memory: Unable to allocate 14.6 TiB"),
        (MemoryError(), "out of memory: an allocation failed"),
    ],
    ids=["numpy", "bare"],
)
def test_cli_out_of_memory_returns_1(tmp_path, monkeypatch, capsys, exc, fragment):
    # As a fleet of 10^12 sensors ends: its draw of 2n uniforms cannot be allocated.
    # The fleet draw raises instead of allocating, so the default config is enough.
    def no_room(fleet_cfg, rng):
        raise exc

    monkeypatch.setattr(schemes, "generate_fleet", no_room)
    assert cli.main(["run", "--scheme", "AoL-REVERB", "--out", str(tmp_path)]) == 1
    assert_one_error_line(capsys, fragment)


def test_cli_config_directory_returns_1(tmp_path, capsys):
    argv = ["run", "--scheme", "Perfect", "--config", str(tmp_path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, "Is a directory")


@pytest.mark.parametrize("flag, fragment", [("--config", "is not valid YAML"), ("--weights", "is not valid JSON")])
def test_cli_file_not_utf8_returns_1(tmp_path, capsys, flag, fragment):
    path = tmp_path / "bad"
    path.write_bytes(b"seed: 1\n\xff\n")
    argv = ["run", "--scheme", "Perfect", flag, str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, fragment)


def test_cli_weights_not_json_returns_1(tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text("not json\n")
    argv = ["run", "--scheme", "Perfect", "--weights", str(weights), "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, "is not valid JSON")


def nan_first_actor_bias(weights):
    biases = [list(b) for b in weights["actor"]["biases"]]
    biases[0][0] = float("nan")
    return {**weights, "actor": {**weights["actor"], "biases": biases}}


def first_actor_weight(value):
    def edit(weights):
        rows = [list(row) for row in weights["actor"]["weights"][0]]
        rows[0][0] = value
        return {**weights, "actor": {**weights["actor"], "weights": [rows] + weights["actor"]["weights"][1:]}}

    return edit


def first_actor_size(value):
    return lambda w: {**w, "actor": {**w["actor"], "sizes": [value] + w["actor"]["sizes"][1:]}}


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda w: {"version": 1}, "missing key 'eta_max'"),
        (lambda w: [1, 2, 3], "weights must be a JSON object, got list"),
        (lambda w: {k: v for k, v in w.items() if k != "actor"}, "missing key 'actor'"),
        # eta_max and input_scale are set through ControlConfig and obey its rules.
        (lambda w: {**w, "eta_max": "abc"}, "eta_max must be a number, got 'abc'"),
        (lambda w: {**w, "eta_max": True}, "eta_max must be a number, got True"),  # used to load as 1.0
        (lambda w: {**w, "version": True}, "weights: unsupported 'version' True, expected 1"),  # used to load
        (lambda w: {**w, "actor": []}, "ill-typed 'actor'"),
        (lambda w: {**w, "log_std": [[1.0], [2.0, 3.0]]}, "ill-typed 'log_std'"),
        (lambda w: {**w, "log_std": [0.5, 0.5]}, "'log_std' has shape (2,), expected (3,)"),
        (lambda w: {**w, "input_scale": [1.0]}, "input_scale needs one entry per state feature (2), got [1.0]"),
        (lambda w: {**w, "input_scale": [True, 1.0]}, "input_scale must be a number, got True"),  # used to load
        (  # used to run, silently a different experiment
            lambda w: {**w, "input_scale": [-1.0, 14.0]},
            "input_scale must be finite and strictly positive, got -1.0",
        ),
        (  # used to load, then end in a matmul traceback at the first forward pass
            lambda w: {
                **w,
                "input_scale": [1.0],
                "actor": {**w["actor"], "weights": [[[1.0]]] + w["actor"]["weights"][1:]},
            },
            "'actor' layer 0 has shapes (1, 1) and (64,), expected (2, 64) and (64,)",
        ),
        (lambda w: {**w, "critic": {**w["critic"], "sizes": [2, 64, 1]}}, "'critic' needs 2 weight"),
        (lambda w: {**w, "state_dim": 3}, "weights for state_dim 3 and n_features 2, but the plant has 2 state"),
        (
            lambda w: {**w, "state_dim": 1},
            "weights for state_dim 1 and n_features 2, but the plant has 2 state features",
        ),
        (lambda w: {**w, "n_features": 3}, "weights for state_dim 2 and n_features 3, but the plant has 2 state"),
        (
            lambda w: {**w, "eta_max": -1.0},
            "weights: 'eta_max' is out of range (eta_max must be finite and nonnegative, got -1.0)",
        ),
        (
            lambda w: {**w, "eta_max": float("nan")},
            "weights: 'eta_max' is out of range (eta_max must be finite and nonnegative, got nan)",
        ),
        (  # used to end in "action fields must be finite" at the first forward pass
            nan_first_actor_bias,
            "weights: 'actor' holds a NaN or infinite entry",
        ),
        (  # used to run, silently a different experiment
            lambda w: {**w, "input_scale": [w["input_scale"][0], float("inf")]},
            "input_scale must be finite and strictly positive, got inf",
        ),
        # Each of these used to load as a number: true as 1.0, "0.5" as 0.5, a size 2.9 as 2.
        (first_actor_weight(True), "ill-typed 'actor' (TypeError: entries must be numbers, got True)"),
        (first_actor_weight("0.5"), "ill-typed 'actor' (TypeError: entries must be numbers, got '0.5')"),
        (
            lambda w: {**w, "log_std": ["0.5"] + w["log_std"][1:]},
            "ill-typed 'log_std' (TypeError: entries must be numbers, got '0.5')",
        ),
        (
            lambda w: {**w, "log_std": [True] + w["log_std"][1:]},
            "ill-typed 'log_std' (TypeError: entries must be numbers, got True)",
        ),
        (first_actor_size(2.9), "ill-typed 'actor' (TypeError: sizes must be integers, got 2.9)"),
        (first_actor_size("2"), "ill-typed 'actor' (TypeError: sizes must be integers, got '2')"),
    ],
)
def test_cli_malformed_weights_returns_1(tmp_path, capsys, edit, fragment):
    weights = control.PolicyAgent(control.ControlConfig(), np.random.default_rng(0)).to_dict()
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(edit(weights)))
    argv = ["run", "--scheme", "Perfect", "--weights", str(path), "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, fragment)


@pytest.mark.parametrize(
    "argv, env_seed, fragment",
    [
        (["run", "--scheme", "Perfect", "--seed", "-1"], None, "seed must be nonnegative, got -1"),
        (["run", "--scheme", "Perfect"], "-3", "seed must be nonnegative, got -3"),
        (["train", "--episodes", "-1"], None, "train needs at least one episode, got -1"),
        (["train", "--episodes", "0"], None, "train needs at least one episode, got 0"),
    ],
    ids=["seed-flag-minus-1", "seed-env-minus-3", "episodes-minus-1", "episodes-0"],
)
def test_cli_bad_seed_or_episode_count_returns_1(tmp_path, monkeypatch, capsys, argv, env_seed, fragment):
    if env_seed is not None:
        monkeypatch.setenv("REVERB_SEED", env_seed)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    assert_one_error_line(capsys, fragment)


def test_cli_commands_do_not_load_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from reverb.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (
        ["run", "--seed", "1", "--out", str(tmp_path / "run")],
        ["train", "--episodes", "1", "--seed", "1", "--out", str(tmp_path / "train")],
        ["bench", "--episodes", "1", "--scheme", "AoL-REVERB", "--seed", "1", "--out", str(tmp_path / "bench")],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "[]", (argv, proc.stdout)


def test_yaml_loads_only_with_a_config_file(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from reverb.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('yaml' in sys.modules)\n"
    )
    cfg_path = tmp_path / "short.yaml"
    cfg_path.write_text("qi_cap: 20\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    for extra, loads in (([], "False"), (["--config", str(cfg_path)], "True")):
        argv = ["run", "--seed", "1", "--out", str(tmp_path / "run"), *extra]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == loads, (argv, proc.stdout)


# Import name -> distribution name, for the package's third-party imports.
DISTRIBUTIONS = {"numpy": "numpy", "yaml": "pyyaml"}


def test_runtime_dependencies_are_the_package_imports():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "reverb").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__"}
    assert third_party == DISTRIBUTIONS.keys()
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", req).group().lower() for req in requirements}

    assert names(project["dependencies"]) == set(DISTRIBUTIONS.values())
    assert "scipy" in names(project["optional-dependencies"]["test"])


def load_golden_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "golden_outputs.py"
    spec = importlib.util.spec_from_file_location("golden_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_outputs_names_first_difference(tmp_path):
    golden = load_golden_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "run").mkdir(parents=True)
        (root / "run" / "episode_0.csv").write_text("qi\n0\n")
        (root / "summary.csv").write_text("a\n")
    assert golden.first_difference(new, old) is None
    (new / "summary.csv").write_text("b\n")
    assert golden.first_difference(new, old) == "summary.csv: contents differ"
    (old / "run" / "episode_0.csv").unlink()
    assert golden.first_difference(new, old) == f"run/episode_0.csv: only in {new}"
    # A differing CSV or JSON file is sized: largest relative float difference,
    # count of other differing cells. Other files and equal files are skipped.
    old, new = tmp_path / "old_shift", tmp_path / "new_shift"
    for root in (old, new):
        root.mkdir()
    (old / "episode_0.csv").write_text("qi,cov_pos,selected\n0,0.25,3;5\n1,1e-06,3\n")
    (new / "episode_0.csv").write_text("qi,cov_pos,selected\n0,0.25000000000001,3;5\n1,1e-06,3;4\n")
    (old / "summary.json").write_text('[{"mrmse": 2.0, "episodes": 5, "scheme": "A"}]\n')
    (new / "summary.json").write_text('[{"mrmse": 2.0000000000004, "episodes": 6, "scheme": "A"}]\n')
    (old / "notes.txt").write_text("a\n")
    (new / "notes.txt").write_text("b\n")
    largest, others = golden.float_shift(new / "episode_0.csv", old / "episode_0.csv")
    assert largest == pytest.approx(4e-14, rel=1e-3) and others == 1
    largest, others = golden.float_shift(new / "summary.json", old / "summary.json")
    assert largest == pytest.approx(2e-13, rel=1e-3) and others == 1
    assert golden.shifted_files(new, old) == [
        "episode_0.csv: largest relative float difference 4e-14, 1 differing non-float cells",
        "summary.json: largest relative float difference 2e-13, 1 differing non-float cells",
    ]
    assert golden.float_shift(old / "summary.json", old / "summary.json") == (0.0, 0)


def test_golden_files_keep_their_recorded_digests(tmp_path):
    """The 11 golden files that go through no BLAS product, regenerated, match tests/golden.sha256."""
    golden = load_golden_script()
    taken, want = golden.read_digest(Path(__file__).with_name("golden.sha256"))
    assert len(want) == 11
    for argv in golden.commands(tmp_path):
        if golden.out_name(argv) in golden.DIGESTED:
            assert cli.main(argv) == 0
    got = golden.digests(tmp_path)
    differing = sorted(rel for rel in want.keys() | got.keys() if want.get(rel) != got.get(rel))
    assert not differing, (
        f"golden files differ from tests/golden.sha256: {differing}; the digests were taken with "
        f"{taken}, this run has {golden.versions()} (numpy does not promise the same random "
        "streams across versions)"
    )
