"""Plant models: generic nonlinear discrete-time dynamics and the mountain-car instance.

A model owns three maps sharing one state convention (position first, velocity
second for the mountain car):

* ``update(s, a)``      -- the deterministic per-interval transition, with the
  environment's clamping rules applied,
* ``update_free(s, a)`` -- the same transition without clamping (the map the
  EKF linearizes),
* ``jacobian(s)``       -- exact partial derivatives of ``update_free`` at ``s``
  with zero control.

Process noise is additive Gaussian on top of ``update``; clamps are re-applied
after the noise so outputs always respect the state bounds. ``clamp``
receives the next state as a list of floats. The noise is the PSD square root
of its covariance, kept as nested floats, times one standard normal draw,
formed as float expressions summed in index order. The per-interval checks of
``step`` and ``jacobian_at`` run on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InputError

Array = np.ndarray


@dataclass(frozen=True)
class MountainCarParams:
    """Constants of the continuous mountain-car environment."""

    gravity: float = 0.0025
    force_gain: float = 0.0015
    goal_position: float = 0.45
    position_min: float = -1.2
    position_max: float = 0.6
    velocity_max: float = 0.07
    start_position_low: float = -0.6
    start_position_high: float = -0.4

    def __post_init__(self) -> None:
        if self.gravity <= 0.0 or self.force_gain <= 0.0:
            raise ConfigError("gravity and force gain must be strictly positive")
        if self.position_min >= self.position_max:
            raise ConfigError("position bounds are reversed")


@dataclass(frozen=True)
class DynamicsModel:
    """Discrete-time plant with additive control and Gaussian process noise."""

    dim: int
    update: Callable[[Array, float], Array]
    update_free: Callable[[Array, float], Array]
    jacobian: Callable[[Array], Array]
    clamp: Callable[[list[float]], Sequence[float]]
    control_gain: Array
    process_noise_cov: Array
    action_bound: float = 1.0
    # PSD square root of process_noise_cov as nested floats; None without noise.
    noise_scale: list[list[float]] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cov = np.asarray(self.process_noise_cov, dtype=float)
        if cov.shape != (self.dim, self.dim):
            raise ConfigError(f"process noise covariance must be {self.dim}x{self.dim}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("process noise covariance must be symmetric")
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals.min() < -1e-12:
            raise ConfigError("process noise covariance must be positive semidefinite")
        # PSD square root; works for rank-deficient (e.g. zero) covariances.
        scale = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))
        object.__setattr__(self, "process_noise_cov", cov)
        object.__setattr__(self, "noise_scale", scale.tolist() if np.any(cov) else None)
        object.__setattr__(self, "control_gain", np.asarray(self.control_gain, dtype=float))


def _checked_state(model: DynamicsModel, state: Array) -> Array:
    s = np.asarray(state, dtype=float)
    if s.shape != (model.dim,) or not all(map(math.isfinite, s.tolist())):
        raise InputError("state must be a finite vector of the model dimension")
    return s


def step(model: DynamicsModel, state: Array, action: float, rng: np.random.Generator) -> Array:
    """Advance the plant one interval: deterministic update plus process noise."""
    s = _checked_state(model, state)
    if not math.isfinite(action):
        raise InputError("action must be finite")
    a = min(max(float(action), -model.action_bound), model.action_bound)
    nxt = model.update(s, a).tolist()
    if model.noise_scale is not None:
        z = rng.standard_normal(model.dim).tolist()
        # x + (noise_scale @ z)[i], the products summed in index order.
        nxt = [x + reduce(add, map(mul, row, z)) for x, row in zip(nxt, model.noise_scale)]
    return np.asarray(model.clamp(nxt), dtype=float)


def jacobian_at(model: DynamicsModel, state: Array) -> Array:
    """Exact Jacobian of the clamp-free update map at ``state`` with zero control."""
    return model.jacobian(_checked_state(model, state))


def finite_difference_jacobian(model: DynamicsModel, state: Array, h: float = 1e-6) -> Array:
    """Central finite differences of ``update_free`` (test oracle for ``jacobian_at``)."""
    s = np.asarray(state, dtype=float)
    jac = np.zeros((model.dim, model.dim))
    for j in range(model.dim):
        dp = s.copy()
        dm = s.copy()
        dp[j] += h
        dm[j] -= h
        jac[:, j] = (model.update_free(dp, 0.0) - model.update_free(dm, 0.0)) / (2.0 * h)
    return jac


def mountain_car_model(
    params: MountainCarParams | None = None,
    process_noise_var: tuple[float, float] = (1e-6, 1e-6),
) -> DynamicsModel:
    """Mountain-car dynamics: v' = v + force_gain*a - gravity*cos(3x), x' = x + v'."""
    p = params or MountainCarParams()

    def update(s: Array, a: float) -> Array:
        x, v = float(s[0]), float(s[1])
        v2 = v + p.force_gain * a - p.gravity * math.cos(3.0 * x)
        v2 = min(max(v2, -p.velocity_max), p.velocity_max)
        x2 = x + v2
        x2 = min(max(x2, p.position_min), p.position_max)
        if x2 == p.position_min and v2 < 0.0:
            v2 = 0.0
        return np.array([x2, v2])

    def update_free(s: Array, a: float) -> Array:
        x, v = float(s[0]), float(s[1])
        v2 = v + p.force_gain * a - p.gravity * math.cos(3.0 * x)
        return np.array([x + v2, v2])

    def jacobian(s: Array) -> Array:
        # d v'/d x = 3*gravity*sin(3x); x' = x + v' chains it into the first row.
        g = 3.0 * p.gravity * math.sin(3.0 * float(s[0]))
        return np.array([[1.0 + g, 1.0], [g, 1.0]])

    def clamp(s: list[float]) -> Array:
        x = min(max(float(s[0]), p.position_min), p.position_max)
        v = min(max(float(s[1]), -p.velocity_max), p.velocity_max)
        if x == p.position_min and v < 0.0:
            v = 0.0
        return np.array([x, v])

    return DynamicsModel(
        dim=2,
        update=update,
        update_free=update_free,
        jacobian=jacobian,
        clamp=clamp,
        control_gain=np.array([0.0, p.force_gain]),
        process_noise_cov=np.diag(process_noise_var),
        action_bound=1.0,
    )


def initial_state(params: MountainCarParams, rng: np.random.Generator) -> Array:
    """Random start: position uniform in the start range, zero velocity."""
    x0 = rng.uniform(params.start_position_low, params.start_position_high)
    return np.array([x0, 0.0])
