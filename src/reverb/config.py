"""Run configuration: one structured file drives every experiment.

The loader is strict: unknown keys are rejected so a typo cannot silently run
a different experiment than intended.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .channel import ChannelParams
from .control import ControlConfig
from .errors import ConfigError
from .schema import NONNEGATIVE, POSITIVE, at_least, check_fields, one_of, positive_at_most, spec, within
from .sensing import FleetConfig

SCHEMES = ("AoL-REVERB", "Perfect", "CB-Greedy", "EB-Greedy", "Traditional")


@dataclass(frozen=True)
class RunConfig:
    scheme: str = spec("AoL-REVERB", str, one_of(*SCHEMES))
    episodes: int = spec(200, int, at_least(1))
    seed: int = spec(1, int, NONNEGATIVE)
    cap: int = spec(10, int, at_least(1))  # max simultaneous uplinks per interval
    qi_cap: int = spec(999, int, at_least(1))
    aol_thresholds: tuple[int, int] = spec((5, 5), (int,), at_least(1), per_feature=True)
    required_var: tuple[float, float] = spec((0.01, 0.002), (float,), POSITIVE, per_feature=True)
    scripted_accuracy: tuple[float, float] = spec(
        (4000.0, 10000.0), (float,), NONNEGATIVE, per_feature=True
    )
    # A variance above 1 is wider than the track itself (positions span 1.8,
    # velocities 0.14); from about 1e8 the twin's covariance checks fail.
    process_noise_var: tuple[float, float] = spec((1e-6, 1e-6), (float,), within(0.0, 1.0), per_feature=True)
    init_belief_var: float = spec(1e-4, float, positive_at_most(1.0))
    train_episodes: int = spec(500, int, NONNEGATIVE)
    out_dir: str = spec("out", str)
    channel: ChannelParams = field(default_factory=ChannelParams)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    control: ControlConfig = field(default_factory=ControlConfig)

    def __post_init__(self) -> None:
        check_fields(self)


def _build(cls, data, path: str):
    """``cls`` from a mapping; a section recurses, and a section's errors name it."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path.rstrip('.') or 'the config'} must be a mapping, got {data!r}")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {f'{path}{key}'!r}")
        section = "kind" not in known[key].metadata
        kwargs[key] = _build(known[key].default_factory, value, f"{path}{key}.") if section else value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}{exc}") from None


def config_from_dict(data: dict | None) -> RunConfig:
    return _build(RunConfig, {} if data is None else data, "")


def load_config(path: str | Path) -> RunConfig:
    import yaml  # only a config file needs the parser; a run without one never loads it

    with open(path, "rb") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None
    return config_from_dict(data)

