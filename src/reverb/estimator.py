"""Extended Kalman filter over the twin's Gaussian belief.

Prediction propagates the covariance through the dynamics Jacobian; fusion
stacks any number of sensor observations into one batch update. The posterior
covariance is computed in Joseph form for robustness and cross-checked against
the textbook (I - KH) P expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg as sla

from .dynamics import DynamicsModel, jacobian_at
from .errors import InputError, NumericalError
from .sensing import Observation, SensingAgent

Array = np.ndarray

SYMMETRY_TOL = 1e-10
JOSEPH_TOL = 1e-8


@dataclass
class Belief:
    """Gaussian state estimate held by the twin: mean, covariance, interval index."""

    mean: Array
    cov: Array
    qi: int = 0

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if not np.all(np.isfinite(self.mean)):
            raise InputError("belief mean must be finite")
        _check_cov(self.cov)

    def copy(self) -> "Belief":
        return Belief(self.mean.copy(), self.cov.copy(), self.qi)


@dataclass(frozen=True)
class FusionBatch:
    """Stacked observations of several sensors: H rows, block-diagonal noise."""

    obs_matrix: Array   # (sum(D), K)
    noise_cov: Array    # (sum(D), sum(D))
    values: Array       # (sum(D),)

    @classmethod
    def from_observations(
        cls, agents: Sequence[SensingAgent], observations: Sequence[Observation]
    ) -> "FusionBatch":
        if len(agents) != len(observations) or not agents:
            raise InputError("need one observation per agent, at least one of each")
        h = np.vstack([a.obs_matrix for a in agents])
        c = sla.block_diag(*[a.noise_cov for a in agents])
        o = np.concatenate([np.atleast_1d(ob.values) for ob in observations])
        return cls(obs_matrix=h, noise_cov=c, values=o)


def _check_cov(cov: Array) -> None:
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise NumericalError("covariance must be square")
    if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
        raise NumericalError("covariance lost symmetry")
    if np.linalg.eigvalsh(cov).min() < -SYMMETRY_TOL:
        raise NumericalError("covariance lost positive semidefiniteness")


def _symmetrize(cov: Array) -> Array:
    return 0.5 * (cov + cov.T)


def predict(belief: Belief, action: float, model: DynamicsModel) -> Belief:
    """Blind prediction: mean through the deterministic map, covariance through P Psi P^T + C_u.

    The process noise enters only through its covariance; sampling it here
    would bias the minimum-mean-square-error predictor.
    """
    jac = jacobian_at(model, belief.mean)
    cov = _symmetrize(jac @ belief.cov @ jac.T + model.process_noise_cov)
    _check_cov(cov)
    mean = model.update(belief.mean, action)
    return Belief(mean=mean, cov=cov, qi=belief.qi + 1)


def _innovation_solve(s_mat: Array, rhs: Array) -> Array:
    """Solve S x = rhs via Cholesky, one jitter retry, else fail."""
    for jitter in (0.0, 1e-12):
        try:
            chol = sla.cho_factor(s_mat + jitter * np.eye(s_mat.shape[0]), lower=True)
            return sla.cho_solve(chol, rhs)
        except np.linalg.LinAlgError:   # scipy.linalg.LinAlgError is the same class
            continue
    raise NumericalError("innovation covariance is singular")


def _joseph_update(prior_cov: Array, h: Array, r: Array) -> tuple[Array, Array]:
    """Kalman gain and Joseph-form posterior covariance, cross-checked against (I-KH)P."""
    s_mat = r + h @ prior_cov @ h.T
    gain = _innovation_solve(s_mat, h @ prior_cov).T
    ikh = np.eye(prior_cov.shape[0]) - gain @ h
    cov = _symmetrize(ikh @ prior_cov @ ikh.T + gain @ r @ gain.T)
    if np.max(np.abs(cov - ikh @ prior_cov)) > JOSEPH_TOL:
        raise NumericalError("Joseph-form and (I-KH)P posteriors disagree")
    return gain, cov


def posterior_cov(prior_cov: Array, obs_matrix: Array, noise_cov: Array) -> Array:
    """Posterior covariance of fusing observations with the given prior (Joseph form)."""
    _, cov = _joseph_update(prior_cov, np.atleast_2d(obs_matrix), np.atleast_2d(noise_cov))
    return cov


def fuse(prior: Belief, batch: FusionBatch) -> Belief:
    """Kalman update of the prior with a stacked observation batch."""
    h = batch.obs_matrix
    if h.shape[1] != prior.mean.shape[0] or h.shape[0] != batch.values.shape[0]:
        raise InputError("batch dimensions do not match the belief")
    gain, cov = _joseph_update(prior.cov, h, batch.noise_cov)
    _check_cov(cov)
    mean = prior.mean + gain @ (batch.values - h @ prior.mean)
    return Belief(mean=mean, cov=cov, qi=prior.qi)


def accuracy_vector(belief: Belief) -> Array:
    """Per-feature accuracy: reciprocal of the covariance diagonal."""
    diag = np.diag(belief.cov)
    if np.any(diag <= 0.0):
        raise NumericalError("covariance diagonal must be strictly positive")
    return 1.0 / diag


def meets_targets(belief: Belief, variance_bounds: Array) -> tuple[bool, tuple[int, ...]]:
    """Check diag(cov) <= bound per feature (inclusive); return the violating features."""
    bounds = np.asarray(variance_bounds, dtype=float)
    diag = np.diag(belief.cov)
    violating = tuple(int(k) for k in np.nonzero(diag > bounds)[0])
    return (len(violating) == 0), violating


def init_belief(true_state: Array, rng: np.random.Generator, var: float = 1e-4) -> Belief:
    """Initial belief: true state perturbed by N(0, var I), covariance var I."""
    s = np.asarray(true_state, dtype=float)
    mean = s + np.sqrt(var) * rng.standard_normal(s.shape[0])
    return Belief(mean=mean, cov=var * np.eye(s.shape[0]), qi=0)
