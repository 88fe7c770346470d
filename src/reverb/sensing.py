"""Sensing agents: placement, the feature each measures, and noisy measurements.

A sensor sees one state feature k and adds its own measurement error of
variance r: it measures ``s[k] + sqrt(r) z``. An agent is k and r (its
observation row is e_k, its noise covariance the 1x1 matrix [r]) plus its
distance and power budget; sqrt(r) is computed once. ``observe_many``
observes a whole selection from one noise draw, the same numbers ``observe``
per sensor would draw, in Python floats. A fleet caches, derived from its
agents, the sensor ids of each feature and global and per-feature candidate
orders for the schedulers, and holds a memo of link budgets, filled lazily by
the scheduler the first time a sensor is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, InputError
from .schema import POSITIVE, STATE_FEATURES, at_least, check_fields, spec

Array = np.ndarray


@dataclass(frozen=True)
class SensingAgent:
    """One wireless sensor: what it measures, how noisily, and where it sits."""

    agent_id: int
    feature: int             # k: the state feature it measures
    noise_var: float         # r: its measurement variance
    distance_m: float
    tx_power_w: float
    noise_std: float = field(init=False, repr=False, compare=False)  # sqrt(r)

    def __post_init__(self) -> None:
        if not (isinstance(self.feature, int) and 0 <= self.feature < STATE_FEATURES):
            raise ConfigError(f"feature must be 0..{STATE_FEATURES - 1}, got {self.feature!r}")
        if not (math.isfinite(self.noise_var) and self.noise_var > 0.0):
            raise ConfigError(f"noise_var must be finite and strictly positive, got {self.noise_var!r}")
        if not (self.distance_m > 0.0):
            raise ConfigError("distance must be strictly positive")
        if not (self.tx_power_w > 0.0):
            raise ConfigError("transmit power budget must be strictly positive")
        object.__setattr__(self, "noise_var", float(self.noise_var))
        object.__setattr__(self, "noise_std", math.sqrt(self.noise_var))


@dataclass(frozen=True)
class Observation:
    agent_id: int
    values: Array
    qi: int = 0

    def __post_init__(self) -> None:
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.isfinite(v).all():
            raise InputError("observation values must be finite")
        if self.qi < 0:
            raise InputError("query interval index must be nonnegative")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FleetConfig:
    """How to generate a fleet of single-feature sensors."""

    n_agents: int = spec(20, int, at_least(STATE_FEATURES))  # round-robin covers every feature
    max_distance_m: float = spec(20.0, float, POSITIVE)
    tx_power_w: float = spec(0.02, float, POSITIVE)
    # Per-feature [lo, hi] measurement-variance ranges, feature order = state order.
    noise_var_ranges: tuple[tuple[float, float], ...] = spec(
        ((1e-3, 2e-2), (2e-4, 4e-3)), ((float, float),), POSITIVE, per_feature=True
    )

    def __post_init__(self) -> None:
        check_fields(self)
        for lo, hi in self.noise_var_ranges:
            if not lo <= hi:
                raise ConfigError(f"noise_var_ranges needs lo <= hi, got [{lo}, {hi}]")


@dataclass(frozen=True)
class SensorFleet:
    """The sensors of one episode; ``agents[i].agent_id == i``."""

    agents: tuple[SensingAgent, ...]
    # Link budgets per channel configuration, keyed by agent id; the
    # scheduler fills an entry the first time that agent is selected.
    link_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.agents)

    def agents_for(self, feature: int) -> tuple[int, ...]:
        return self.feature_index.get(feature, ())

    @cached_property
    def feature_index(self) -> dict[int, tuple[int, ...]]:
        """Per feature, its sensor ids in id order."""
        return {
            k: tuple(a.agent_id for a in self.agents if a.feature == k) for k in range(STATE_FEATURES)
        }

    def _order(self, key) -> tuple[int, ...]:
        return tuple(sorted(range(len(self.agents)), key=lambda i: key(self.agents[i])))

    def _per_feature(self, order: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        rank = {i: r for r, i in enumerate(order)}
        return {k: tuple(sorted(ids, key=rank.__getitem__)) for k, ids in self.feature_index.items()}

    @cached_property
    def nearest(self) -> tuple[int, ...]:
        """Every sensor id ordered by (distance_m, id)."""
        return self._order(lambda a: (a.distance_m, a.agent_id))

    @cached_property
    def quietest(self) -> tuple[int, ...]:
        """Every sensor id ordered by (noise_var, id)."""
        return self._order(lambda a: (a.noise_var, a.agent_id))

    @cached_property
    def nearest_first(self) -> dict[int, tuple[int, ...]]:
        """Per feature, its sensor ids ordered by (distance_m, id)."""
        return self._per_feature(self.nearest)

    @cached_property
    def quietest_first(self) -> dict[int, tuple[int, ...]]:
        """Per feature, its sensor ids ordered by (noise_var, id)."""
        return self._per_feature(self.quietest)


def generate_fleet(config: FleetConfig, rng: np.random.Generator) -> SensorFleet:
    """Place ``n_agents`` single-feature sensors, features assigned round-robin.

    Distances are i.i.d. uniform on (0, max_distance]; each sensor's noise
    variance is uniform in its feature's configured range.
    """
    agents = []
    for i in range(config.n_agents):
        k = i % STATE_FEATURES
        lo, hi = config.noise_var_ranges[k]
        d = float(config.max_distance_m * (1.0 - rng.uniform(0.0, 1.0)))  # in (0, d_max]
        agents.append(SensingAgent(i, k, rng.uniform(lo, hi), distance_m=d, tx_power_w=config.tx_power_w))
    return SensorFleet(agents=tuple(agents))


def observe(agent: SensingAgent, state: Array, rng: np.random.Generator, qi: int = 0) -> Observation:
    """Measure ``s[k] + sqrt(r) z`` with one standard normal draw ``z``."""
    s = np.asarray(state, dtype=float)
    if not np.isfinite(s).all():
        raise InputError("state must be finite")
    values = np.array([s[agent.feature] + agent.noise_std * rng.standard_normal()])
    return Observation(agent_id=agent.agent_id, values=values, qi=qi)


def observe_many(fleet: SensorFleet, ids, state: Array, rng: np.random.Generator) -> Array:
    """The observations of sensors ``ids``, in order, from one draw of ``len(ids)`` normals.

    ``rng.standard_normal(n)`` yields the numbers of n single draws, and each
    value is ``observe``'s expression, so the values and the generator state
    afterwards equal those of calling ``observe`` for each sensor in turn.
    """
    s = np.asarray(state, dtype=float).ravel().tolist()
    if not all(map(math.isfinite, s)):
        raise InputError("state must be finite")
    agents = fleet.agents
    z = rng.standard_normal(len(ids)).tolist()
    return np.array(
        [s[agents[i].feature] + agents[i].noise_std * zi for i, zi in zip(ids, z)], dtype=float
    )
