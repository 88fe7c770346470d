"""Sensing agents: placement, the feature each measures, and noisy measurements.

A sensor sees one state feature k and adds its own measurement error of
variance r: it measures ``s[k] + sqrt(r) z``. An agent is k and r (its
observation row is e_k, its noise covariance the 1x1 matrix [r]) plus its
distance and power budget; its id is its index in the fleet's ``agents``,
which it does not store. It is an immutable named tuple whose constructor
checks k and r; ``_make`` and ``_replace`` run the same constructor, so no
copy skips a check, and an agent keeps no sqrt(r) that could go stale.
``observe`` is the one sensor model: it reads a whole selection from one take
of the loop's standard normals (``loop.NormalStream``) and returns the
readings as a list of Python floats. A fleet caches each sensor's feature, r
and sqrt(r) as tuples indexed by id, which ``observe`` and the scheduler read
per pick and per link. From them it caches the sensor ids of each feature, the
lowest of each, and the fleet-wide candidate orders by (distance, id) and by
(noise, id): a stable sort of the ids by the value alone, ties left in id
order, split by feature in one pass. A fleet holds no link budget: the loop
that runs it does (``TwinLoop.links``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import Normals, State
from .errors import ConfigError, InputError
from .schema import POSITIVE, STATE_FEATURES, at_least, check_fields, spec


class _AgentFields(NamedTuple):
    feature: int             # k: the state feature it measures
    noise_var: float         # r: its measurement variance
    distance_m: float
    tx_power_w: float


class SensingAgent(_AgentFields):
    """One wireless sensor: what it measures, how noisily, and where it sits."""

    __slots__ = ()

    def __new__(cls, feature: int, noise_var: float, distance_m: float, tx_power_w: float):
        if not (isinstance(feature, int) and 0 <= feature < STATE_FEATURES):
            raise ConfigError(f"feature must be 0..{STATE_FEATURES - 1}, got {feature!r}")
        if not (math.isfinite(noise_var) and noise_var > 0.0):
            raise ConfigError(f"noise_var must be finite and strictly positive, got {noise_var!r}")
        if not (distance_m > 0.0):
            raise ConfigError("distance must be strictly positive")
        if not (tx_power_w > 0.0):
            raise ConfigError("transmit power budget must be strictly positive")
        return tuple.__new__(cls, (feature, float(noise_var), distance_m, tx_power_w))

    @classmethod
    def _make(cls, iterable) -> "SensingAgent":
        """An agent from its four fields, checked by the constructor (``_replace`` comes here too)."""
        return cls(*iterable)


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
    """The sensors of one episode; a sensor's id is its index in ``agents``."""

    agents: tuple[SensingAgent, ...]

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
        return tuple([math.sqrt(r) for r in self.noise_vars])

    @cached_property
    def feature_index(self) -> dict[int, tuple[int, ...]]:
        """Per feature, its sensor ids in id order."""
        return self._per_feature(range(len(self.agents)))

    @cached_property
    def lowest_per_feature(self) -> tuple[int, ...]:
        """The lowest sensor id of each feature that has one, in id order."""
        return tuple(sorted([ids[0] for ids in self.feature_index.values() if ids]))

    def _per_feature(self, order) -> dict[int, tuple[int, ...]]:
        """``order`` split by feature in one pass; a split keeps the order."""
        queues: list[list[int]] = [[] for _ in range(STATE_FEATURES)]
        features = self.features
        for i in order:
            queues[features[i]].append(i)
        return {k: tuple(q) for k, q in enumerate(queues)}

    @cached_property
    def nearest(self) -> tuple[int, ...]:
        """Every sensor id ordered by (distance_m, id)."""
        distances = [a.distance_m for a in self.agents]
        return tuple(sorted(range(len(distances)), key=distances.__getitem__))

    @cached_property
    def quietest(self) -> tuple[int, ...]:
        """Every sensor id ordered by (noise_var, id)."""
        return tuple(sorted(range(len(self.agents)), key=self.noise_vars.__getitem__))

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
        agents.append(SensingAgent(k, lo + (hi - lo) * u_noise, d, config.tx_power_w))
    return SensorFleet(agents=tuple(agents))


def observe(fleet: SensorFleet, ids, state: State, normals: Normals) -> list[float]:
    """The readings ``s[k] + sqrt(r) z`` of sensors ``ids``, in order, from ``normals(len(ids))``.

    ``state`` is a pair (position, velocity), each entry read as a float; a
    state that is not a pair, or has an entry that is not finite, raises
    ``InputError`` before a normal is taken.
    The z are the stream's next normals, in order, so the readings equal
    those of reading the sensors one at a time, each with its own draw of
    one normal from the stream's generator.
    """
    try:
        x, v = state
    except (TypeError, ValueError):  # not a pair
        raise InputError("state must be two finite numbers") from None
    x, v = float(x), float(v)
    if not (math.isfinite(x) and math.isfinite(v)):
        raise InputError("state must be finite")
    s = x, v
    features, stds = fleet.features, fleet.noise_stds
    z = normals(len(ids))
    return [s[features[i]] + stds[i] * zi for i, zi in zip(ids, z)]
