"""Extended Kalman filter over the twin's 2-D Gaussian belief.

The twin tracks the mountain car's state, position and velocity: a belief is
a length-2 mean and a 2x2 covariance, held as tuples of Python floats, and
the arithmetic of a round is written out for that shape on those floats; no
numpy container is built on the way. Prediction propagates the
covariance through the dynamics Jacobian, J P J^T + Q, as explicit 2x2
expressions with each entry's products summed in index order, so the result
does not depend on the BLAS kernel (it equals the elementwise ``einsum``
product bit for bit).

A sensor observes one feature k with noise variance r, so independent
readings are fused one at a time (sequential processing, Bierman 1977):
``rank1_update`` is the Joseph-form update S = P_kk + r, K = P[:, k] / S of a
2x2 covariance on flat floats: it takes the prior's four entries in row
order, k and r, and returns one flat step (g0, g1, c00, c01, c10, c11). It
is cross-checked against the textbook (I - K e_k^T) P expression, with one
jitter retry when S is not positive, and its checks are comparisons, so it
calls no builtin. The planner calls it once per pick and keeps each step;
``scheduler.fuse_delivered`` reuses those steps and applies the mean update
m + K (y - m_k). ``posterior_cov`` is the covariance alone, nested.

``fuse`` takes a stacked ``FusionBatch`` of unit-selector rows e_k with a
diagonal noise covariance (``from_observations`` stacks sensors and their
read values). Its readings are independent, so it applies them in row
order, one ``rank1_update`` and mean update each, which is exact for that
input: the package has one Kalman update. A new belief is checked once, when
it is constructed: its mean for finiteness, its covariance for symmetry and,
by its smaller eigenvalue in closed form, for positive semidefiniteness.
``predict`` reads the mean's two entries once for the Jacobian and the
transition; it checks only that they are still finite, since the mean is a
plain attribute that can be reassigned after construction, and the
mountain car would clip an infinite velocity to a finite next state.
``init_belief`` builds the twin's start from float tuples as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Matrix2, MountainCar, State
from .errors import InputError, NumericalError
from .schema import STATE_FEATURES
from .sensing import SensingAgent

Array = np.ndarray

SYMMETRY_TOL = 1e-10
JOSEPH_TOL = 1e-8

_INF = math.inf

# One rank-1 update of a 2x2 covariance, flat: (g0, g1, c00, c01, c10, c11), gain then posterior.
Step = tuple[float, float, float, float, float, float]


@dataclass(slots=True)
class Belief:
    """Gaussian state estimate held by the twin: 2-vector mean, 2x2 covariance, as float tuples.

    Any pair and 2x2 nesting of numbers is accepted and kept as tuples.
    """

    mean: State
    cov: Matrix2

    def __post_init__(self) -> None:
        try:
            m0, m1 = self.mean
            (c00, c01), (c10, c11) = self.cov
        except (TypeError, ValueError):
            n = STATE_FEATURES
            raise InputError(f"belief must be a {n}-vector mean with a {n}x{n} covariance") from None
        if not (-_INF < m0 < _INF and -_INF < m1 < _INF):
            raise InputError("belief mean must be finite")
        if not -SYMMETRY_TOL <= c01 - c10 <= SYMMETRY_TOL:
            raise NumericalError("covariance lost symmetry")
        # Smaller eigenvalue of [[c00, c01], [c01, c11]] in closed form.
        if not 0.5 * (c00 + c11) - math.hypot(0.5 * (c00 - c11), c01) >= -SYMMETRY_TOL:
            raise NumericalError("covariance lost positive semidefiniteness")
        self.mean = m0, m1
        self.cov = (c00, c01), (c10, c11)


@dataclass(frozen=True)
class FusionBatch:
    """Stacked observations of several sensors: selector rows, diagonal noise."""

    obs_matrix: Array   # (n, K)
    noise_cov: Array    # (n, n)
    values: Array       # (n,)

    @classmethod
    def from_observations(cls, agents: Sequence[SensingAgent], values: Sequence[float]) -> "FusionBatch":
        if len(agents) != len(values) or not agents:
            raise InputError("need one observation per agent, at least one of each")
        h = np.eye(STATE_FEATURES)[[a.feature for a in agents]]  # rows e_k
        c = np.diag([a.noise_var for a in agents])
        return cls(obs_matrix=h, noise_cov=c, values=np.array(values, dtype=float))


def predict(belief: Belief, action: float, model: MountainCar) -> Belief:
    """Blind prediction: mean through the deterministic map, covariance through P Psi P^T + C_u.

    ``model`` is any value with the plant's ``update(s, a)``, ``jacobian(s)``
    (a pair of rows) and ``process_noise_cov`` (2x2, nested): the mean goes
    through ``update``, the covariance through ``jacobian`` plus the noise
    covariance. The process noise enters only through its covariance;
    sampling it here would bias the minimum-mean-square-error predictor.
    """
    mean = m0, m1 = belief.mean
    if not (-_INF < m0 < _INF and -_INF < m1 < _INF):  # a mean reassigned since construction
        raise InputError("belief mean must be finite")
    (j00, j01), (j10, j11) = model.jacobian(mean)
    (p00, p01), (p10, p11) = belief.cov
    (q00, q01), (q10, q11) = model.process_noise_cov
    # A = J P, then C = A J^T + Q, each entry's products summed in index order.
    a00, a01 = j00 * p00 + j01 * p10, j00 * p01 + j01 * p11
    a10, a11 = j10 * p00 + j11 * p10, j10 * p01 + j11 * p11
    c00, c01 = a00 * j00 + a01 * j01 + q00, a00 * j10 + a01 * j11 + q01
    c10, c11 = a10 * j00 + a11 * j01 + q10, a10 * j10 + a11 * j11 + q11
    cov = (0.5 * (c00 + c00), 0.5 * (c01 + c10)), (0.5 * (c10 + c01), 0.5 * (c11 + c11))
    return Belief(model.update(mean, action), cov)


def rank1_update(p00: float, p01: float, p10: float, p11: float, k: int, r: float) -> Step:
    """Kalman gain and Joseph-form posterior of a 2x2 prior fused with one reading, as one flat step.

    The sensor observes feature ``k`` with noise variance ``r``; the prior's
    entries come in row order and the step is (g0, g1, c00, c01, c10, c11).
    The off-diagonal term r (g0 g1) and the symmetrized entry are formed
    once, as c01 and c10 are the same float. Cross-checked against (I-KH)P;
    S = P_kk + r gets one jitter retry when it is not positive.
    """
    # Row k of the prior (pk0, pk1), its column k (p0k, p1k) and P_kk.
    if k == 0:
        pkk = pk0 = p0k = p00
        pk1, p1k = p01, p10
    else:
        pkk = pk1 = p1k = p11
        pk0, p0k = p10, p01
    if not (-_INF < pk0 < _INF and -_INF < pk1 < _INF and -_INF < r < _INF):
        raise NumericalError("innovation covariance or gain system is not finite")
    s = pkk + r
    if not s > 0.0:
        s = pkk + r + 1e-12
        if not s > 0.0:
            raise NumericalError("innovation covariance is singular")
    g0, g1 = p0k / s, p1k / s
    # (I - K e_k^T) P, then Joseph: (I - K e_k^T) P (I - K e_k^T)^T + r K K^T.
    a00, a01 = p00 - g0 * pk0, p01 - g0 * pk1
    a10, a11 = p10 - g1 * pk0, p11 - g1 * pk1
    if k == 0:
        a0k, a1k = a00, a10
    else:
        a0k, a1k = a01, a11
    rg01 = r * (g0 * g1)
    j00 = a00 - a0k * g0 + r * (g0 * g0)
    j01 = a01 - a0k * g1 + rg01
    j10 = a10 - a1k * g0 + rg01
    j11 = a11 - a1k * g1 + r * (g1 * g1)
    c00, c01, c11 = 0.5 * (j00 + j00), 0.5 * (j01 + j10), 0.5 * (j11 + j11)
    tol = JOSEPH_TOL
    if not (
        -tol <= c00 - a00 <= tol
        and -tol <= c01 - a01 <= tol
        and -tol <= c01 - a10 <= tol
        and -tol <= c11 - a11 <= tol
    ):
        raise NumericalError("Joseph-form and (I-KH)P posteriors disagree")
    return g0, g1, c00, c01, c01, c11


def posterior_cov(p: Matrix2, k: int, r: float) -> Matrix2:
    """The would-be posterior of one reading: ``rank1_update``'s covariance alone, nested."""
    (p00, p01), (p10, p11) = p
    _, _, c00, c01, c10, c11 = rank1_update(p00, p01, p10, p11, k, r)
    return (c00, c01), (c10, c11)


def fuse(prior: Belief, batch: FusionBatch) -> Belief:
    """Kalman update of the prior with a stacked batch of independent readings.

    Each row of ``obs_matrix`` must select one feature k (a unit row e_k) and
    ``noise_cov`` must be diagonal; row i is then the reading (k, r_ii, y_i),
    and the readings are applied in row order, each by ``rank1_update``.
    """
    h = np.asarray(batch.obs_matrix, dtype=float)
    r = np.asarray(batch.noise_cov, dtype=float)
    y = np.asarray(batch.values, dtype=float)
    n = y.size
    if y.shape != (n,) or h.shape != (n, STATE_FEATURES) or r.shape != (n, n):
        raise InputError("batch dimensions do not match the belief")
    rows = h.tolist()
    if not all(row.count(1.0) == 1 and row.count(0.0) == len(row) - 1 for row in rows):
        raise InputError("each observation row must select one feature (a unit row e_k)")
    if np.any(r[~np.eye(n, dtype=bool)] != 0.0):
        raise InputError("the batch noise covariance must be diagonal")
    (m0, m1), ((c00, c01), (c10, c11)) = prior.mean, prior.cov
    for row, rk, yk in zip(rows, np.diag(r).tolist(), y.tolist()):
        k = row.index(1.0)
        g0, g1, c00, c01, c10, c11 = rank1_update(c00, c01, c10, c11, k, rk)
        innovation = yk - (m0 if k == 0 else m1)
        m0, m1 = m0 + g0 * innovation, m1 + g1 * innovation
    return Belief((m0, m1), ((c00, c01), (c10, c11)))


def init_belief(true_state: State, rng: np.random.Generator, var: float) -> Belief:
    """Initial belief: true state perturbed by N(0, var I), covariance var I."""
    x, v = true_state
    z0, z1 = rng.standard_normal(2).tolist()
    sd = math.sqrt(var)
    return Belief((x + sd * z0, v + sd * z1), ((var, 0.0), (0.0, var)))
