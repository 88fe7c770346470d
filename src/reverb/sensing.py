"""Sensing agents: placement, the feature each measures, and noisy measurements.

A sensor sees one state feature k and adds its own measurement error of
variance r: it measures ``s[k] + sqrt(r) z``. An agent is k and r (its
observation row is e_k, its noise covariance the 1x1 matrix [r]) plus its
distance and power budget; sqrt(r) is computed once. ``observe`` is the one
sensor model: it reads a whole selection from one draw of standard normals
and returns the readings as a list of Python floats. A fleet caches, derived
from its agents, the sensor ids of each feature and the global candidate
orders for the schedulers, by (distance, id) and by (noise, id); a feature's
order is the global one filtered to its sensors. It also caches each
sensor's feature, r and sqrt(r) as tuples indexed by id, which ``observe``
and the scheduler read per pick and per link. It holds a memo of link
budgets, filled lazily by the scheduler the first time a sensor is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import State
from .errors import ConfigError, InputError
from .schema import POSITIVE, STATE_FEATURES, at_least, check_fields, spec


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
    # Per channel configuration, keyed by agent id: the link budget and its
    # ``channel.link_terms``; the scheduler fills an entry the first time
    # that agent is selected.
    link_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def features(self) -> tuple[int, ...]:
        """Per sensor id, the feature it measures."""
        return tuple([a.feature for a in self.agents])

    @cached_property
    def noise_vars(self) -> tuple[float, ...]:
        """Per sensor id, its measurement variance r."""
        return tuple([a.noise_var for a in self.agents])

    @cached_property
    def noise_stds(self) -> tuple[float, ...]:
        """Per sensor id, sqrt(r)."""
        return tuple([a.noise_std for a in self.agents])

    @cached_property
    def feature_index(self) -> dict[int, tuple[int, ...]]:
        """Per feature, its sensor ids in id order."""
        return self._per_feature(range(len(self.agents)))

    def _order(self, key) -> tuple[int, ...]:
        return tuple(sorted(range(len(self.agents)), key=lambda i: key(self.agents[i])))

    def _per_feature(self, order: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        """``order`` filtered to each feature's sensors; a filter keeps the order."""
        features = self.features
        return {k: tuple(i for i in order if features[i] == k) for k in range(STATE_FEATURES)}

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
    variance is uniform in its feature's configured range. The 2n uniforms
    come from one ``rng.random(2 * n)``, read in pairs (distance, noise): the
    numbers of 2n single ``rng.uniform`` draws, since ``uniform(lo, hi)`` is
    ``lo + (hi - lo) * random()``.
    """
    u = iter(rng.random(2 * config.n_agents).tolist())
    agents = []
    for i, u_dist, u_noise in zip(range(config.n_agents), u, u):
        k = i % STATE_FEATURES
        lo, hi = config.noise_var_ranges[k]
        d = config.max_distance_m * (1.0 - u_dist)  # in (0, d_max]
        agents.append(SensingAgent(i, k, lo + (hi - lo) * u_noise, distance_m=d, tx_power_w=config.tx_power_w))
    return SensorFleet(agents=tuple(agents))


def observe(fleet: SensorFleet, ids, state: State, rng: np.random.Generator) -> list[float]:
    """The readings ``s[k] + sqrt(r) z`` of sensors ``ids``, in order, from one draw.

    ``rng.standard_normal(len(ids))`` yields the numbers of that many single
    draws, so the readings and the generator state afterwards equal those of
    reading the sensors one at a time, each with its own draw.
    """
    s = tuple(map(float, state))
    if not all(map(math.isfinite, s)):
        raise InputError("state must be finite")
    features, stds = fleet.features, fleet.noise_stds
    z = rng.standard_normal(len(ids)).tolist()
    return [s[features[i]] + stds[i] * zi for i, zi in zip(ids, z)]
