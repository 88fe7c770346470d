"""Extended Kalman filter over the twin's 2-D Gaussian belief.

The twin tracks the mountain car's state, position and velocity: a belief is
a length-2 mean and a 2x2 covariance, and the arithmetic of a round is
written out for that shape in Python floats. Prediction propagates the
covariance through the dynamics Jacobian, J P J^T + Q, as explicit 2x2
expressions with each entry's products summed in index order, so the result
does not depend on the BLAS kernel (it equals the elementwise ``einsum``
product bit for bit).

A sensor observes one feature k with noise variance r, so independent
readings are fused one at a time (sequential processing, Bierman 1977):
``rank1_update`` is the Joseph-form update S = P_kk + r, K = P[:, k] / S of a
2x2 covariance held as nested floats, cross-checked against the textbook
(I - K e_k^T) P expression, with one jitter retry when S is not positive.
The planner calls it through ``posterior_cov`` once per pick, and
``fuse_readings`` once per delivered reading, in selection order, with the
mean update m + K (y - m_k).

``fuse`` is the general batch update of a stacked observation batch, kept as
the oracle of the sequential path and for the acceptance checks; its
innovation system is solved by the LAPACK routines scipy's
``cho_factor``/``cho_solve`` call (potrf, potrs), loaded on first use.
A new belief's covariance is checked once, when it is constructed, for
symmetry and, by its smaller eigenvalue in closed form, for positive
semidefiniteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .dynamics import DynamicsModel, jacobian_at
from .errors import InputError, NumericalError
from .schema import STATE_FEATURES
from .sensing import Observation, SensingAgent

Array = np.ndarray

SYMMETRY_TOL = 1e-10
JOSEPH_TOL = 1e-8


@dataclass
class Belief:
    """Gaussian state estimate held by the twin: 2-vector mean, 2x2 covariance, interval index."""

    mean: Array
    cov: Array
    qi: int = 0

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = STATE_FEATURES
        if self.mean.shape != (n,) or self.cov.shape != (n, n):
            raise InputError(f"belief must be a {n}-vector mean with a {n}x{n} covariance")
        if not all(map(math.isfinite, self.mean.tolist())):
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
        h = np.eye(STATE_FEATURES)[[a.feature for a in agents]]  # rows e_k
        c = np.diag([a.noise_var for a in agents])
        o = np.concatenate([np.atleast_1d(ob.values) for ob in observations])
        return cls(obs_matrix=h, noise_cov=c, values=o)


def _check_cov(cov: Array) -> None:
    (a, b), (c, d) = cov.tolist()
    # Smaller eigenvalue of [[a, b], [b, d]] in closed form.
    min_eig = 0.5 * (a + d) - math.hypot(0.5 * (a - d), b)
    if not abs(b - c) <= SYMMETRY_TOL:
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
    (j00, j01), (j10, j11) = jacobian_at(model, belief.mean).tolist()
    (p00, p01), (p10, p11) = belief.cov.tolist()
    (q00, q01), (q10, q11) = model.process_noise_cov.tolist()
    # A = J P, then C = A J^T + Q, each entry's products summed in index order.
    a00, a01 = j00 * p00 + j01 * p10, j00 * p01 + j01 * p11
    a10, a11 = j10 * p00 + j11 * p10, j10 * p01 + j11 * p11
    c00, c01 = a00 * j00 + a01 * j01 + q00, a00 * j10 + a01 * j11 + q01
    c10, c11 = a10 * j00 + a11 * j01 + q10, a10 * j10 + a11 * j11 + q11
    cov = [[0.5 * (c00 + c00), 0.5 * (c01 + c10)], [0.5 * (c10 + c01), 0.5 * (c11 + c11)]]
    return Belief(mean=model.update(belief.mean, action), cov=np.array(cov), qi=belief.qi + 1)


@cache
def _potrf_potrs():
    """The LAPACK routines behind scipy's cho_factor/cho_solve, loaded on first use.

    Only the batch ``fuse`` solves a matrix system, so a run that never calls
    it never imports scipy.linalg.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs(("potrf", "potrs"), (np.zeros((1, 1)),))


def _innovation_solve(s_mat: Array, rhs: Array) -> Array:
    """Solve S x = rhs via Cholesky, one jitter retry, else fail.

    Calls potrf/potrs with the arguments cho_factor/cho_solve pass, without
    their per-call wrapper work.
    """
    if not (np.isfinite(s_mat).all() and np.isfinite(rhs).all()):
        raise NumericalError("innovation covariance or gain system is not finite")
    potrf, potrs = _potrf_potrs()
    for jitter in (0.0, 1e-12):
        shifted = s_mat + jitter * np.eye(s_mat.shape[0]) if jitter else s_mat
        chol, info = potrf(shifted, lower=1, clean=0)
        if info == 0:
            x, info = potrs(chol, rhs, lower=1)
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


def rank1_update(p: list[list[float]], k: int, r: float) -> tuple[tuple[float, float], list[list[float]]]:
    """Kalman gain and Joseph-form posterior of a 2x2 prior fused with one reading.

    The sensor observes feature ``k`` with noise variance ``r``. ``p`` and the
    posterior are nested floats: on a 2x2 prior the per-call overhead of numpy
    would dominate. Cross-checked against (I-KH)P; S = P_kk + r gets one
    jitter retry when it is not positive.
    """
    (p00, p01), (p10, p11) = p
    pk0, pk1 = p[k]
    p0k, p1k = (p00, p10) if k == 0 else (p01, p11)
    if not (math.isfinite(pk0) and math.isfinite(pk1) and math.isfinite(r)):
        raise NumericalError("innovation covariance or gain system is not finite")
    s = p[k][k] + r
    if not s > 0.0:
        s = p[k][k] + r + 1e-12
        if not s > 0.0:
            raise NumericalError("innovation covariance is singular")
    g0, g1 = p0k / s, p1k / s
    # (I - K e_k^T) P, then Joseph: (I - K e_k^T) P (I - K e_k^T)^T + r K K^T.
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
    return (g0, g1), [[c00, c01], [c10, c11]]


def posterior_cov(p: list[list[float]], k: int, r: float) -> list[list[float]]:
    """The planner's would-be posterior: ``rank1_update``'s covariance alone."""
    return rank1_update(p, k, r)[1]


def fuse_readings(prior: Belief, readings: Iterable[tuple[int, float, float]]) -> Belief:
    """Kalman update of a 2-D prior with independent readings (k, r, y), one at a time, in order.

    Each reading y of feature k with noise variance r moves the mean by
    K (y - m_k) and the covariance by ``rank1_update``.
    """
    m0, m1 = prior.mean.tolist()
    cov = prior.cov.tolist()
    for k, r, y in readings:
        (g0, g1), cov = rank1_update(cov, k, r)
        innovation = y - (m0 if k == 0 else m1)
        m0, m1 = m0 + g0 * innovation, m1 + g1 * innovation
    return Belief(mean=np.array([m0, m1]), cov=np.array(cov), qi=prior.qi)


def fuse(prior: Belief, batch: FusionBatch) -> Belief:
    """Kalman update of the prior with a stacked observation batch."""
    h = batch.obs_matrix
    if h.shape[1] != prior.mean.shape[0] or h.shape[0] != batch.values.shape[0]:
        raise InputError("batch dimensions do not match the belief")
    gain, cov = _joseph_update(prior.cov, h, batch.noise_cov)
    mean = prior.mean + gain @ (batch.values - h @ prior.mean)
    return Belief(mean=mean, cov=cov, qi=prior.qi)


def meets_targets(belief: Belief, variance_bounds: Array) -> tuple[bool, tuple[int, ...]]:
    """Check diag(cov) <= bound per feature (inclusive); return the violating features."""
    bounds = np.asarray(variance_bounds, dtype=float).ravel().tolist()
    cov = belief.cov.tolist()
    if len(bounds) != len(cov):
        raise InputError("one variance bound per feature is required")
    violating = tuple(k for k, (row, bound) in enumerate(zip(cov, bounds)) if row[k] > bound)
    return not violating, violating


def init_belief(true_state: Array, rng: np.random.Generator, var: float = 1e-4) -> Belief:
    """Initial belief: true state perturbed by N(0, var I), covariance var I."""
    s = np.asarray(true_state, dtype=float)
    mean = s + np.sqrt(var) * rng.standard_normal(s.shape[0])
    return Belief(mean=mean, cov=var * np.eye(s.shape[0]), qi=0)
