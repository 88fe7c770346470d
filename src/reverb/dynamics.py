"""The plant: the mountain car (Moore 1990) with Gaussian process noise per feature.

A state is a pair of Python floats, position first and velocity second; the
environment's constants are module constants. A plant, ``MountainCar``, is
an immutable value built by ``plant`` from the two process-noise variances
(v0, v1). It holds their covariance, diag(v0, v1), and the per-feature noise
standard deviations (sqrt(v0), sqrt(v1)), ``None`` when both variances are
zero, and it carries the car's three maps:

* ``update(s, a)`` -- the deterministic per-interval transition, ending in
  ``clamp``,
* ``clamp(s)``     -- the environment's one clamping rule,
* ``jacobian(s)``  -- exact partial derivatives at ``s``, with zero control,
  of the transition without clamping (the map the EKF linearizes), as a pair
  of rows.

``step`` checks that the state is two finite numbers and the force finite,
clips the force to [-ACTION_BOUND, ACTION_BOUND], adds sqrt(v0) z0 to
``update``'s next position and sqrt(v1) z1 to its next velocity, z0 and z1
being the next two standard normals of the caller's ``normals`` stream
(``loop.NormalStream``), and applies ``clamp`` again, so outputs always
respect the state bounds. A noiseless plant takes no normals. ``step`` and
``estimator.predict`` read only a plant's attributes, so any value with the
same maps and noise attributes steps and predicts too.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError

State = tuple[float, float]
Matrix2 = tuple[tuple[float, float], tuple[float, float]]
Normals = Callable[[int], list[float]]  # n -> the next n standard normals of the loop's stream


# Constants of the continuous mountain-car environment.
GRAVITY = 0.0025
FORCE_GAIN = 0.0015
GOAL_POSITION = 0.45
POSITION_MIN = -1.2
POSITION_MAX = 0.6
VELOCITY_MAX = 0.07
START_POSITION_LOW = -0.6
START_POSITION_HIGH = -0.4
ACTION_BOUND = 1.0  # the applied force is clipped to [-ACTION_BOUND, ACTION_BOUND]


class MountainCar(NamedTuple):
    """The mountain car, v' = v + FORCE_GAIN*a - GRAVITY*cos(3x), x' = x + v', with its process noise."""

    process_noise_cov: Matrix2               # ((v0, 0.0), (0.0, v1))
    noise_std: tuple[float, float] | None    # (sqrt(v0), sqrt(v1)); None when v0 and v1 are zero

    @staticmethod
    def clamp(s: State) -> State:
        x, v = s
        if POSITION_MIN > x:
            x = POSITION_MIN
        if POSITION_MAX < x:
            x = POSITION_MAX
        if -VELOCITY_MAX > v:
            v = -VELOCITY_MAX
        if VELOCITY_MAX < v:
            v = VELOCITY_MAX
        if x == POSITION_MIN and v < 0.0:
            v = 0.0
        return x, v

    @staticmethod
    def update(s: State, a: float) -> State:
        x, v = s
        v2 = v + FORCE_GAIN * a - GRAVITY * math.cos(3.0 * x)
        # x' takes the clipped velocity; clamp leaves it as it is.
        if -VELOCITY_MAX > v2:
            v2 = -VELOCITY_MAX
        if VELOCITY_MAX < v2:
            v2 = VELOCITY_MAX
        return MountainCar.clamp((x + v2, v2))

    @staticmethod
    def jacobian(s: State) -> Matrix2:
        # d v'/d x = 3*GRAVITY*sin(3x); x' = x + v' chains it into the first row.
        g = 3.0 * GRAVITY * math.sin(3.0 * s[0])
        return (1.0 + g, 1.0), (g, 1.0)


def plant(process_noise_var: Sequence[float]) -> MountainCar:
    """The mountain car with process-noise variances (v0, v1) of (position, velocity)."""
    v0, v1 = process_noise_var
    if not all(math.isfinite(v) and v >= 0.0 for v in (v0, v1)):
        raise ConfigError("process noise variances must be finite and nonnegative")
    v0, v1 = float(v0), float(v1)
    return MountainCar(((v0, 0.0), (0.0, v1)), (math.sqrt(v0), math.sqrt(v1)) if v0 or v1 else None)


def step(car: MountainCar, state: State, action: float, normals: Normals) -> State:
    """Advance the plant one interval: deterministic update plus process noise from ``normals(2)``."""
    try:
        x, v = state
        finite = math.isfinite(x) and math.isfinite(v)
    except (TypeError, ValueError):  # not a pair, or not numbers
        finite = False
    if not finite:
        raise InputError("state must be two finite numbers")
    if not math.isfinite(action):
        raise InputError("action must be finite")
    a = float(action)
    if -ACTION_BOUND > a:
        a = -ACTION_BOUND
    if ACTION_BOUND < a:
        a = ACTION_BOUND
    x, v = car.update((x, v), a)
    std = car.noise_std
    if std is not None:
        z0, z1 = normals(2)
        x, v = x + std[0] * z0, v + std[1] * z1
    return car.clamp((x, v))


def initial_state(rng: np.random.Generator) -> State:
    """Random start: position uniform in the start range, zero velocity."""
    return rng.uniform(START_POSITION_LOW, START_POSITION_HIGH), 0.0
