"""Run configuration: one structured file drives every experiment.

The loader is strict: unknown keys are rejected so a typo cannot silently run
a different experiment than intended.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .channel import ChannelParams
from .control import ControlConfig
from .errors import ConfigError
from .sensing import FleetConfig

SCHEMES = ("AoL-REVERB", "Perfect", "CB-Greedy", "EB-Greedy", "Traditional")
STATE_FEATURES = 2          # mountain car: position, velocity


@dataclass
class RunConfig:
    scheme: str = "AoL-REVERB"
    episodes: int = 200
    seed: int = 1
    cap: int = 10                                  # max simultaneous uplinks per interval
    qi_cap: int = 999
    aol_thresholds: tuple[int, int] = (5, 5)
    required_var: tuple[float, float] = (0.01, 0.002)
    traditional_sensors: int = 2                   # 1 or 2 fixed sensors for the baseline
    scripted_accuracy: tuple[float, float] = (4000.0, 10000.0)
    process_noise_var: tuple[float, float] = (1e-6, 1e-6)
    init_belief_var: float = 1e-4
    train_episodes: int = 500
    out_dir: str = "out"
    channel: ChannelParams = field(default_factory=ChannelParams)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    control: ControlConfig = field(default_factory=ControlConfig)

    def __post_init__(self) -> None:
        for name in ("aol_thresholds", "required_var", "scripted_accuracy", "process_noise_var"):
            if len(getattr(self, name)) != STATE_FEATURES:
                raise ConfigError(f"{name} needs one entry per state feature ({STATE_FEATURES})")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.episodes < 1 or self.train_episodes < 0 or self.qi_cap < 1:
            raise ConfigError("episode and interval counts must be positive")
        if self.cap < 1:
            raise ConfigError("connection cap must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.traditional_sensors not in (1, 2):
            raise ConfigError("traditional_sensors must be 1 or 2")
        if any(t < 1 for t in self.aol_thresholds):
            raise ConfigError("age thresholds must be at least 1")
        for name in ("required_var", "scripted_accuracy", "process_noise_var"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {list(getattr(self, name))}")
        if any(v <= 0 for v in self.required_var):
            raise ConfigError("required variances must be strictly positive")
        if any(a < 0 for a in self.scripted_accuracy):
            raise ConfigError("scripted accuracy requests must be nonnegative")
        if not (math.isfinite(self.init_belief_var) and self.init_belief_var > 0):
            raise ConfigError(
                f"init_belief_var must be finite and strictly positive, got {self.init_belief_var}"
            )


def _integer(value, name: str) -> int:
    """A count as written; 2.5 or true is rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


_TUPLE_FIELDS = {
    "aol_thresholds": _integer,
    "required_var": _real,
    "scripted_accuracy": _real,
    "process_noise_var": _real,
    "hidden": _integer,
    "input_scale": _real,
}


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected a mapping")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {path + key!r}")
        if dataclasses.is_dataclass(_DATACLASS_FIELDS.get(key, None)):
            kwargs[key] = _build(_DATACLASS_FIELDS[key], value, path + key + ".")
        elif key == "noise_var_ranges":
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value
            ):
                raise ConfigError(f"{path + key} must be a list of [lo, hi] pairs, got {value!r}")
            kwargs[key] = tuple((_real(lo, path + key), _real(hi, path + key)) for lo, hi in value)
        elif key in _TUPLE_FIELDS:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{path + key} must be a list, got {value!r}")
            kwargs[key] = tuple(_TUPLE_FIELDS[key](v, path + key) for v in value)
        elif known[key].type == "int":
            kwargs[key] = _integer(value, path + key)
        elif known[key].type == "float":
            kwargs[key] = _real(value, path + key)
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


_DATACLASS_FIELDS = {
    "channel": ChannelParams,
    "fleet": FleetConfig,
    "control": ControlConfig,
}


def config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data or {}, "")


def load_config(path: str | Path) -> RunConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None
    if data is None:
        data = {}
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    def unpack(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            out = {}
            for f in fields(obj):
                if not f.init:
                    continue
                out[f.name] = unpack(getattr(obj, f.name))
            return out
        if isinstance(obj, tuple):
            return [unpack(v) for v in obj]
        return obj

    return unpack(cfg)
