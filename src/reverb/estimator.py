"""Extended Kalman filter over the twin's Gaussian belief.

Prediction propagates the covariance through the dynamics Jacobian; fusion
stacks the observations of any number of sensors, one selector row and one
noise variance each, into one batch update. The posterior covariance is
computed in Joseph form for robustness and cross-checked against the
textbook (I - KH) P expression.

``fuse`` runs the general batch update, whose innovation system is solved by
the LAPACK routines scipy's ``cho_factor``/``cho_solve`` call (potrf, potrs),
called directly with the same arguments. The planner adds one sensor at a
time with ``posterior_cov``, the rank-1 Joseph update S = P_kk + r,
K = P[:, k] / S (sequential processing, Bierman 1977) on a 2x2 covariance
held as nested floats, with the same cross-check; it may differ from
``_joseph_update`` in the last ulp. Covariance checks use closed-form
eigenvalues on 2x2 matrices and run once per new belief, when it is
constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

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
    """Stacked observations of several sensors: selector rows, diagonal noise."""

    obs_matrix: Array   # (n, K)
    noise_cov: Array    # (n, n)
    values: Array       # (n,)

    @classmethod
    def from_observations(
        cls, agents: Sequence[SensingAgent], observations: Sequence[Observation]
    ) -> "FusionBatch":
        if len(agents) != len(observations) or not agents:
            raise InputError("need one observation per agent, at least one of each")
        h = np.vstack([a.obs_matrix for a in agents])
        c = np.diag([a.noise_var for a in agents])
        o = np.concatenate([np.atleast_1d(ob.values) for ob in observations])
        return cls(obs_matrix=h, noise_cov=c, values=o)


def _check_cov(cov: Array) -> None:
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise NumericalError("covariance must be square")
    if cov.shape[0] == 2:
        (a, b), (c, d) = cov.tolist()
        asymmetry = abs(b - c)
        # Smaller eigenvalue of [[a, b], [b, d]] in closed form.
        min_eig = 0.5 * (a + d) - math.hypot(0.5 * (a - d), b)
    else:
        asymmetry = np.max(np.abs(cov - cov.T))
        min_eig = np.linalg.eigvalsh(cov).min()
    if not asymmetry <= SYMMETRY_TOL:
        raise NumericalError("covariance lost symmetry")
    if not min_eig >= -SYMMETRY_TOL:
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
    mean = model.update(belief.mean, action)
    return Belief(mean=mean, cov=cov, qi=belief.qi + 1)


# The LAPACK routines behind scipy's cho_factor/cho_solve, called with the
# same arguments but without their per-call wrapper work.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.zeros((1, 1)),))


def _innovation_solve(s_mat: Array, rhs: Array) -> Array:
    """Solve S x = rhs via Cholesky, one jitter retry, else fail."""
    if not (np.isfinite(s_mat).all() and np.isfinite(rhs).all()):
        raise NumericalError("innovation covariance or gain system is not finite")
    for jitter in (0.0, 1e-12):
        shifted = s_mat + jitter * np.eye(s_mat.shape[0]) if jitter else s_mat
        chol, info = _POTRF(shifted, lower=1, clean=0)
        if info == 0:
            x, info = _POTRS(chol, rhs, lower=1)
            if info == 0:
                return x
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


def posterior_cov(p: list[list[float]], k: int, r: float) -> list[list[float]]:
    """Joseph-form posterior of a 2x2 prior fused with one sensor, cross-checked against (I-KH)P.

    The sensor observes feature ``k`` with noise variance ``r``. ``p`` and the
    result are nested floats: on a 2x2 prior the per-call overhead of numpy
    would dominate, and the planner keeps its covariance in this form across
    picks.
    """
    (p00, p01), (p10, p11) = p
    for jitter in (0.0, 1e-12):
        s = p[k][k] + r + jitter
        if s > 0.0:
            break
    else:
        raise NumericalError("innovation covariance is singular")
    g0, g1 = p[0][k] / s, p[1][k] / s
    # (I - K e_k^T) P, then Joseph: (I - K e_k^T) P (I - K e_k^T)^T + r K K^T.
    pk0, pk1 = p[k]
    a00, a01 = p00 - g0 * pk0, p01 - g0 * pk1
    a10, a11 = p10 - g1 * pk0, p11 - g1 * pk1
    a0k, a1k = (a00, a10) if k == 0 else (a01, a11)
    j00 = a00 - a0k * g0 + r * (g0 * g0)
    j01 = a01 - a0k * g1 + r * (g0 * g1)
    j10 = a10 - a1k * g0 + r * (g1 * g0)
    j11 = a11 - a1k * g1 + r * (g1 * g1)
    c00, c01, c10, c11 = 0.5 * (j00 + j00), 0.5 * (j01 + j10), 0.5 * (j10 + j01), 0.5 * (j11 + j11)
    if not (
        abs(c00 - a00) <= JOSEPH_TOL
        and abs(c01 - a01) <= JOSEPH_TOL
        and abs(c10 - a10) <= JOSEPH_TOL
        and abs(c11 - a11) <= JOSEPH_TOL
    ):
        raise NumericalError("Joseph-form and (I-KH)P posteriors disagree")
    return [[c00, c01], [c10, c11]]


def fuse(prior: Belief, batch: FusionBatch) -> Belief:
    """Kalman update of the prior with a stacked observation batch."""
    h = batch.obs_matrix
    if h.shape[1] != prior.mean.shape[0] or h.shape[0] != batch.values.shape[0]:
        raise InputError("batch dimensions do not match the belief")
    gain, cov = _joseph_update(prior.cov, h, batch.noise_cov)
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
