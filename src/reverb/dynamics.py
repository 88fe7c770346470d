"""Plant models: 2-D nonlinear discrete-time dynamics and the mountain-car instance.

The twin's plant has two state features, position first and velocity second
for the mountain car, whose constants are module constants. A state is a pair
of Python floats. A model holds three maps sharing that convention:

* ``update(s, a)`` -- the deterministic per-interval transition, ending in
  ``clamp``,
* ``clamp(s)``     -- the environment's one clamping rule,
* ``jacobian(s)``  -- exact partial derivatives at ``s``, with zero control,
  of the transition without clamping (the map the EKF linearizes), as a pair
  of rows.

The mountain car's maps take and return float pairs; the constructor also
accepts maps that return numpy arrays (a linear test model's ``A @ s``),
since every caller unpacks what a map returns. ``step`` checks that the
state is two finite numbers, clips the force to [-ACTION_BOUND,
ACTION_BOUND], adds Gaussian process noise to ``update``'s next state and
applies ``clamp`` again, so outputs always respect the state bounds. The
noise is the PSD square root of its 2x2 covariance, kept as nested float
tuples beside the covariance itself, times the next two standard normals of
the caller's ``normals`` stream (``loop.NormalStream``), formed as float
expressions summed in index order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, InputError
from .schema import STATE_FEATURES

Array = np.ndarray
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


@dataclass(frozen=True)
class DynamicsModel:
    """Discrete-time 2-D plant with additive control and Gaussian process noise."""

    update: Callable[[State, float], State]
    jacobian: Callable[[State], Matrix2]
    clamp: Callable[[State], State]
    process_noise_cov: Matrix2  # given as any 2x2 array-like, kept as nested float tuples
    # PSD square root of process_noise_cov as nested floats; None without noise.
    noise_scale: Matrix2 | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cov = np.asarray(self.process_noise_cov, dtype=float)
        n = STATE_FEATURES
        if cov.shape != (n, n):
            raise ConfigError(f"the plant needs {n} state features and {n}x{n} process noise")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("process noise covariance must be symmetric")
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals.min() < -1e-12:
            raise ConfigError("process noise covariance must be positive semidefinite")
        # PSD square root; works for rank-deficient (e.g. zero) covariances.
        scale = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))
        object.__setattr__(self, "process_noise_cov", _nested(cov))
        object.__setattr__(self, "noise_scale", _nested(scale) if np.any(cov) else None)


def _nested(matrix: Array) -> Matrix2:
    (a, b), (c, d) = matrix.tolist()
    return (a, b), (c, d)


def _checked_state(state: State) -> State:
    """``state`` as a pair, if it is two finite numbers."""
    try:
        x, v = state
        finite = math.isfinite(x) and math.isfinite(v)
    except (TypeError, ValueError):  # not a pair, or not numbers
        finite = False
    if not finite:
        raise InputError("state must be two finite numbers")
    return x, v


def step(model: DynamicsModel, state: State, action: float, normals: Normals) -> State:
    """Advance the plant one interval: deterministic update plus process noise from ``normals(2)``."""
    s = _checked_state(state)
    if not math.isfinite(action):
        raise InputError("action must be finite")
    a = min(max(float(action), -ACTION_BOUND), ACTION_BOUND)
    x, v = model.update(s, a)
    if model.noise_scale is not None:
        z0, z1 = normals(2)
        (s00, s01), (s10, s11) = model.noise_scale
        # (x, v) + noise_scale @ z, each entry's products summed in index order.
        x, v = x + (s00 * z0 + s01 * z1), v + (s10 * z0 + s11 * z1)
    return model.clamp((x, v))


def mountain_car_model(process_noise_var: tuple[float, float]) -> DynamicsModel:
    """Mountain-car dynamics: v' = v + FORCE_GAIN*a - GRAVITY*cos(3x), x' = x + v'.

    A model is immutable, so each noise setting's is built once and shared;
    the setting is told apart by the variances' exact bits (-0.0 is not 0.0).
    """
    return _mountain_car_model(tuple(float(v).hex() for v in process_noise_var))


@functools.lru_cache(maxsize=16)
def _mountain_car_model(noise_var_bits: tuple[str, ...]) -> DynamicsModel:
    def clamp(s: State) -> State:
        x, v = s
        x = min(max(x, POSITION_MIN), POSITION_MAX)
        v = min(max(v, -VELOCITY_MAX), VELOCITY_MAX)
        if x == POSITION_MIN and v < 0.0:
            v = 0.0
        return x, v

    def update(s: State, a: float) -> State:
        x, v = s
        v2 = v + FORCE_GAIN * a - GRAVITY * math.cos(3.0 * x)
        # x' takes the clipped velocity; clamp leaves it as it is.
        v2 = min(max(v2, -VELOCITY_MAX), VELOCITY_MAX)
        return clamp((x + v2, v2))

    def jacobian(s: State) -> Matrix2:
        # d v'/d x = 3*GRAVITY*sin(3x); x' = x + v' chains it into the first row.
        g = 3.0 * GRAVITY * math.sin(3.0 * s[0])
        return (1.0 + g, 1.0), (g, 1.0)

    return DynamicsModel(
        update=update,
        jacobian=jacobian,
        clamp=clamp,
        process_noise_cov=np.diag([float.fromhex(v) for v in noise_var_bits]),
    )


def initial_state(rng: np.random.Generator) -> State:
    """Random start: position uniform in the start range, zero velocity."""
    return rng.uniform(START_POSITION_LOW, START_POSITION_HIGH), 0.0
