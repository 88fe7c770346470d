"""Reference functions the tests check the package against; no run calls them.

* ``marcum_q1`` and ``gaussian_q``: the exact Rician and Gaussian tails behind
  the outage-threshold approximation and ``channel.gaussian_q_inv``.
* ``accuracy_vector``: the per-feature accuracy a belief delivers.
* ``td_error``: the one-step temporal-difference residual of one transition,
  the quantity ``control.ppo_update`` computes for a whole batch.
"""

import math

import numpy as np

from reverb import control as ctl
from reverb import estimator as est
from reverb.errors import InputError, NumericalError


def marcum_q1(a: float, b: float, rel_tol: float = 1e-12) -> float:
    """First-order Marcum Q: tail of a noncentral chi-square with 2 dof.

    Poisson-mixture series: sum_k e^{-a^2/2} (a^2/2)^k / k! * P[chi2_{2k+2} > b^2],
    truncated when the remaining Poisson mass is below ``rel_tol`` of the sum.
    """
    if a < 0.0 or b < 0.0:
        raise InputError("arguments must be nonnegative")
    if b == 0.0:
        return 1.0
    ha = 0.5 * a * a
    hb = 0.5 * b * b
    pois = math.exp(-ha)          # Poisson weight at k = 0
    inner = math.exp(-hb)         # chi-square tail increment at j = 0
    chi_tail = inner              # P[chi2_2 > b^2]
    total = pois * chi_tail
    cum = pois
    k = 0
    while (1.0 - cum) > rel_tol * max(total, 1e-300) and k < 100000:
        k += 1
        pois *= ha / k
        inner *= hb / k
        chi_tail += inner
        total += pois * chi_tail
        cum += pois
    return min(total, 1.0)


def gaussian_q(x: float) -> float:
    """Standard normal tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def accuracy_vector(belief: est.Belief) -> np.ndarray:
    """Per-feature accuracy: reciprocal of the covariance diagonal."""
    diag = np.diag(belief.cov)
    if np.any(diag <= 0.0):
        raise NumericalError("covariance diagonal must be strictly positive")
    return 1.0 / diag


def td_error(agent: ctl.PolicyAgent, transition: ctl.Transition, gamma: float) -> float:
    """One-step residual r + gamma * V(s') - V(s); no bootstrap on terminal steps."""
    v_s = float(agent.value(transition.state[None, :])[0])
    v_next = 0.0 if transition.done else float(agent.value(transition.next_state[None, :])[0])
    return transition.reward + gamma * v_next - v_s
