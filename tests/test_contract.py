"""The input contract: every config field is declared, and the CLI never crashes on input.

The fuzz test mutates the shipped example config and a fresh ``weights.json``
with wrong types, non-finite and extreme reals, negatives, zeros, wrong list
lengths and unknown keys. Every document must either run clean (exit 0, no
warning) or end in exit 1 with exactly one stderr line starting ``error:``.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from reverb import cli, control
from reverb.channel import ChannelParams
from reverb.config import RunConfig, config_from_dict
from reverb.control import ControlConfig
from reverb.errors import ConfigError
from reverb.sensing import FleetConfig

EXAMPLE = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "example.yaml").read_text())
CONFIGS = (RunConfig, ChannelParams, FleetConfig, ControlConfig)


def test_every_config_field_is_declared():
    undeclared = [
        f"{cls.__name__}.{f.name}"
        for cls in CONFIGS
        for f in dataclasses.fields(cls)
        if "kind" not in f.metadata
    ]
    assert undeclared == ["RunConfig.channel", "RunConfig.fleet", "RunConfig.control"]
    flags = [f.name for cls in CONFIGS for f in dataclasses.fields(cls) if f.metadata.get("kind") is bool]
    assert flags == []


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_config_is_frozen(cls):
    # An assignment would skip check_fields; dataclasses.replace runs it.
    cfg = cls()
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


@pytest.mark.parametrize(
    "section, cls, key, value",
    [
        ("channel", ChannelParams, "noise_power_dbm", math.nan),
        ("channel", ChannelParams, "system_gain", math.inf),
        ("channel", ChannelParams, "outage_target", 0.5),
        ("fleet", FleetConfig, "max_distance_m", math.nan),
        ("fleet", FleetConfig, "n_agents", 1),
        ("fleet", FleetConfig, "noise_var_ranges", ((1e-3, 2e-2),)),
        ("control", ControlConfig, "minibatch", 0),
        ("control", ControlConfig, "hidden", (0, 4)),
        ("control", ControlConfig, "input_scale", (1.0,)),
    ],
)
def test_direct_construction_rejects_what_yaml_rejects(section, cls, key, value):
    with pytest.raises(ConfigError) as direct:
        cls(**{key: value})
    with pytest.raises(ConfigError) as loaded:
        config_from_dict({section: {key: list(value) if isinstance(value, tuple) else value}})
    # The same complaint, apart from how the offending value prints (tuple or list).
    complaint = str(direct.value).split(", got")[0]
    assert complaint.startswith(key) and str(loaded.value).startswith(f"{section}.{complaint}")


def test_yaml_string_reals_are_numbers():
    cfg = config_from_dict({"init_belief_var": "1e-4", "channel": {"outage_target": "1e-5"}})
    assert cfg.init_belief_var == 1e-4 and cfg.channel.outage_target == 1e-5


# --- fuzzed CLI contract -------------------------------------------------------


def _leaf_paths(doc, prefix=()):
    """Every path into ``doc``: mappings by key, lists by index, the containers too."""
    paths = [prefix] if prefix else []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        paths += _leaf_paths(value, prefix + (key,))
    return paths


def _fresh_weights() -> dict:
    agent = control.PolicyAgent(ControlConfig(hidden=(3,)), np.random.default_rng(0))
    return json.loads(json.dumps(agent.to_dict()))


WEIGHTS = _fresh_weights()
# Counts that size the work (n_agents, hidden, epochs, minibatch) only ever get small integers.
BAD_VALUES = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308, -1e308, 1e-320, 0.5]),
    st.sampled_from(["abc", "1e-4", True, None, {"x": 1}, [], [1.0], [1.0, 2.0, 3.0], [[1.0]]]),
)


def _mutated(base: dict, paths: list, extra_keys: list):
    edit = st.tuples(st.sampled_from(paths + extra_keys), BAD_VALUES)
    return st.lists(edit, min_size=1, max_size=3).map(lambda edits: _apply(base, edits))


def _apply(base: dict, edits) -> dict:
    doc = json.loads(json.dumps(base))
    for path, value in edits:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced a container on this path
    return doc


def _cli(argv) -> tuple[int, list[str], list[str]]:
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    return code, err.getvalue().splitlines(), [str(w.message) for w in caught]


def _assert_contract(argv):
    code, err, caught = _cli(argv)
    assert not caught, (argv, caught)
    if code != 0:
        assert code == 1 and len(err) == 1 and err[0].startswith("error:"), (argv, code, err)


CONFIG_DOCS = _mutated(
    EXAMPLE, _leaf_paths(EXAMPLE), [("nope",), ("channel", "nope"), ("fleet", "nope"), ("control", "nope")]
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=CONFIG_DOCS)
def test_cli_contract_on_mutated_configs(doc):
    doc["qi_cap"] = 5
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        _assert_contract(["run", "--config", str(path), "--out", str(Path(tmp) / "run")])
        _assert_contract(["train", "--episodes", "1", "--config", str(path), "--out", str(Path(tmp) / "train")])


WEIGHT_DOCS = _mutated(WEIGHTS, _leaf_paths(WEIGHTS), [("nope",)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doc=WEIGHT_DOCS)
def test_cli_contract_on_mutated_weights(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config, weights = Path(tmp) / "config.yaml", Path(tmp) / "weights.json"
        config.write_text("qi_cap: 5\n")
        weights.write_text(json.dumps(doc))
        _assert_contract(["run", "--config", str(config), "--weights", str(weights), "--out", tmp])


# --- extreme finite inputs: one error line or a clean run ---------------------


# Each case's id is its tag, setting and fragment, written in the case rather
# than taken from its position, so adding or removing a case renames no other.
# The tags are the ones the suite has printed for these cases since they were added.
EXTREME_CASES = [
    ("argv0", ["run"], "channel: {path_loss_exp: 1.0e+6}", "theta=nan is not a finite value above 1"),
    ("argv1", ["run"], "channel: {noise_power_dbm: 1.0e+300}", "theta=nan is not a finite value above 1"),
    ("argv2", ["run"], "fleet: {max_distance_m: 1.0e+308}", "theta=nan is not a finite value above 1"),
    ("argv3", ["run"], "channel: {noise_power_dbm: -1.0e+300}", "theta=nan is not a finite value above 1"),
    ("argv4", ["run"], "fleet: {max_distance_m: 1.0e-320}", "theta=nan is not a finite value above 1"),
    ("argv5", ["run", "--scheme", "CB-Greedy"], "channel: {path_loss_exp: 400.0}", "is not a finite value above 1"),
    ("argv6", ["run"], "channel: {prb_hz: 1.0e-320}", "Hz is no finite count of"),
    ("argv7", ["train", "--episodes", "1"], "control: {eta_max: 1.0e+308}", "the policy update left the float range"),
    ("argv8", ["train", "--episodes", "1"], "control: {lr_actor: 1.0e+308}", "the policy update left the float range"),
    ("argv9", ["run"], "required_var: [1.0e-320, 1.0e-320]", None),
    # Once "covariance lost positive semidefiniteness" and "... symmetry", naming no key.
    (
        "argv10",
        ["run"],
        "process_noise_var: [1.0e+308, 1.0e+308]",
        "process_noise_var must be finite and within [0.0, 1.0]",
    ),
    (
        "argv11",
        ["train", "--episodes", "1"],
        "process_noise_var: [1.0e+308, 1.0e+308]",
        "process_noise_var must be finite and within [0.0, 1.0]",
    ),
    (
        "argv12",
        ["run"],
        "init_belief_var: 1.0e+308",
        "init_belief_var must be finite and strictly positive and at most 1.0",
    ),
    (
        "argv13",
        ["train", "--episodes", "1"],
        "init_belief_var: 1.0e+308",
        "init_belief_var must be finite and strictly positive and at most 1.0",
    ),
]


@pytest.mark.parametrize(
    "argv, setting, fragment",
    [
        pytest.param(argv, setting, fragment, id=f"{tag}-{setting}-{fragment}")
        for tag, argv, setting, fragment in EXTREME_CASES
    ],
)
def test_extreme_finite_inputs(tmp_path, argv, setting, fragment):
    config = tmp_path / "config.yaml"
    config.write_text(f"{setting}\nqi_cap: 5\n")
    code, err, caught = _cli(argv + ["--config", str(config), "--out", str(tmp_path / "out")])
    assert not caught, caught
    if fragment is None:
        assert code == 0 and not err, err
    else:
        assert code == 1 and len(err) == 1 and err[0].startswith("error:") and fragment in err[0], err
