import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from reverb import cli, control
from reverb.config import RunConfig, config_from_dict, config_to_dict, load_config
from reverb.errors import ConfigError, InputError
from reverb.metrics import compute_metrics
from reverb.recordio import (
    EPISODE_COLUMNS,
    EpisodeRecord,
    read_episode_csv,
    write_episode_csv,
)
from reverb.runner import apply_sweep_point, monte_carlo, sweep_values
from reverb.schemes import make_policy, run_episode


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


def small_cfg(**overrides):
    base = RunConfig(qi_cap=60, **overrides)
    return base


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
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"
    assert load_config(path) == RunConfig()


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(scheme="Nope")
    with pytest.raises(ConfigError):
        RunConfig(cap=0)
    with pytest.raises(ConfigError):
        RunConfig(traditional_sensors=3)


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
    cfg1 = dataclasses.replace(cfg, traditional_sensors=1)
    record1 = run_episode(cfg1, "Traditional", make_policy(cfg1), seed=5)
    assert set(record1.columns["selected"]) == {"0"}


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
        rec.append(**r)
    return rec


def base_row(**over):
    row = dict(
        qi=0, true_pos=0.0, true_vel=0.0, belief_pos=0.0, belief_vel=0.0,
        cov_pos=1e-4, cov_vel=1e-4, target_pos=0.01, target_vel=0.002,
        n_selected=0, selected="", delivered="", prbs=0, age_pos=1, age_vel=1,
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
    with pytest.raises(ValueError):
        rec.append(qi=0)


def test_summary_csv_round_trip(tmp_path):
    from reverb.recordio import read_summary_csv, write_summary_csv

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
        ("control: {optimizer: foo}", "control.optimizer must be one of adam, sgd, got 'foo'"),
        ("control: {minibatch: 0}", "control.minibatch must be at least 1, got 0"),
        ("control: {explore_frac: .nan}", "control.explore_frac must be finite and within [0.0, 1.0]"),
        ("control: {hidden: [0, 4]}", "control.hidden must be at least 1, got 0"),
        ("control: {epochs: 0}", "control.epochs must be at least 1, got 0"),
        ("control: {clip: -1.0}", "control.clip must be finite and strictly positive, got -1.0"),
        ("control: {advantage_norm: maybe}", "control.advantage_norm must be true or false, got 'maybe'"),
        ("control: {input_scale: [1.0]}", "control.input_scale needs one entry per state feature"),
        ("fleet: {max_distance_m: .nan}", "fleet.max_distance_m must be finite and strictly positive"),
        ("channel: {noise_power_dbm: .nan}", "channel.noise_power_dbm must be finite, got nan"),
        ("channel: {system_gain: .inf}", "channel.system_gain must be finite and strictly positive"),
        # sqrt(2 K) overflows: once "fading threshold must be positive", naming no key
        ("channel: {rician_k: 1.0e+308}", "channel.rician_k must leave the fading threshold finite"),
    ],
)
def test_cli_malformed_config_returns_1(tmp_path, capsys, setting, fragment):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(setting + "\n")
    argv = ["run", "--scheme", "AoL-REVERB", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, fragment)


def test_cli_config_directory_returns_1(tmp_path, capsys):
    argv = ["run", "--scheme", "Perfect", "--config", str(tmp_path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, "Is a directory")


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


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda w: {"version": 1}, "missing key 'eta_max'"),
        (lambda w: [1, 2, 3], "weights must be a JSON object, got list"),
        (lambda w: {k: v for k, v in w.items() if k != "actor"}, "missing key 'actor'"),
        (lambda w: {**w, "eta_max": "abc"}, "ill-typed 'eta_max'"),
        (lambda w: {**w, "actor": []}, "ill-typed 'actor'"),
        (lambda w: {**w, "log_std": [[1.0], [2.0, 3.0]]}, "ill-typed 'log_std'"),
        (lambda w: {**w, "log_std": [0.5, 0.5]}, "'log_std' has shape (2,), expected (3,)"),
        (lambda w: {**w, "input_scale": [1.0]}, "'input_scale' has shape (1,), expected (2,)"),
        (  # used to load, then end in a matmul traceback at the first forward pass
            lambda w: {
                **w,
                "input_scale": [1.0],
                "actor": {**w["actor"], "weights": [[[1.0]]] + w["actor"]["weights"][1:]},
            },
            "'actor' layer 0 has shapes (1, 1) and (64,), expected (2, 64) and (64,)",
        ),
        (lambda w: {**w, "critic": {**w["critic"], "sizes": [2, 64, 1]}}, "'critic' needs 2 weight"),
        (lambda w: {**w, "state_dim": 3}, "'actor' sizes [2, 64, 64, 3] must run from 3 to 3"),
        (
            lambda w: control.PolicyAgent(1, 2, control.ControlConfig(), np.random.default_rng(0)).to_dict(),
            "weights for state_dim 1 and n_features 2, but the plant has 2 state features",
        ),
        (lambda w: {**w, "eta_max": -1.0}, "weights: 'eta_max' is out of range"),
        (lambda w: {**w, "eta_max": float("nan")}, "weights: 'eta_max' is out of range"),
        (  # used to end in "action fields must be finite" at the first forward pass
            nan_first_actor_bias,
            "weights: 'actor' holds a NaN or infinite entry",
        ),
        (  # used to run, silently a different experiment
            lambda w: {**w, "input_scale": [w["input_scale"][0], float("inf")]},
            "weights: 'input_scale' holds a NaN or infinite entry",
        ),
    ],
)
def test_cli_malformed_weights_returns_1(tmp_path, capsys, edit, fragment):
    weights = control.PolicyAgent(2, 2, control.ControlConfig(), np.random.default_rng(0)).to_dict()
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
)
def test_cli_bad_seed_or_episode_count_returns_1(tmp_path, monkeypatch, capsys, argv, env_seed, fragment):
    if env_seed is not None:
        monkeypatch.setenv("REVERB_SEED", env_seed)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    assert_one_error_line(capsys, fragment)


def test_run_and_train_do_not_load_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from reverb.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print([m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (
        ["run", "--seed", "1", "--out", str(tmp_path / "run")],
        ["train", "--episodes", "1", "--seed", "1", "--out", str(tmp_path / "train")],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "[]", (argv, proc.stdout)


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
