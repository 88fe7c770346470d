"""Reference functions the tests check the package against; no run calls them.

* ``marcum_q1`` and ``gaussian_q``: the exact Rician and Gaussian tails behind
  the outage-threshold approximation and ``channel.gaussian_q_inv``.
* ``accuracy_vector``: the per-feature accuracy a belief delivers.
* ``td_error``: the one-step temporal-difference residual of one transition,
  the quantity ``control.ppo_update`` computes for a whole batch.
* ``forward_2d``, ``gaussian_log_prob``, ``value``, ``squash``,
  ``sample_step_2d`` and ``ppo_update_batch``: the learner as it was before
  its per-interval step took one row, each state pushed through the nets as
  a 2-D batch, each layer's ``tanh(h @ W + b)`` a new array per operation,
  every log density taken by the batch function and the action squashed in
  numpy; ``MLP.forward_cached``, ``PolicyAgent.sample_step``,
  ``PolicyAgent.squash`` and ``control.ppo_update`` must keep their bits.
  ``ppo_update_batch`` is also the learner as it was before the agent held
  one parameter vector: ``backward_list`` returns each layer's gradient as
  a new array, the layers are concatenated per net, and two ``AdamState``s,
  one over ``[actor, log_std]`` and one over ``[critic]``, step the actor
  before the critic's forward pass.
* ``adam_step``: the Adam update as whole-array expressions, a new array per
  operation; ``nets.Adam.step`` forms it in place and must keep its bits.
* ``mountain_car_update``: the clamped mountain-car transition with its
  constants written out, each bound applied where it first arises.
* ``mountain_car_clamp`` and ``mountain_car_step``: the state bounds and the
  noisy plant step, every clip a builtin ``min(max(x, lo), hi)``;
  ``squash_min``: ``PolicyAgent.squash`` clipping each request with
  ``min(-r, 709.0)``. The package clips with comparisons and must return
  what these return.
* ``linear_model``: a linear plant s' = A s with a given 2x2 process-noise
  covariance, duck-typed as ``estimator.predict`` and ``dynamics.step`` read
  the mountain car: the textbook Kalman filter's model. ``STILL`` is the
  one with A = I and no noise.
* ``mountain_car_free`` and ``finite_difference_jacobian``: the mountain-car
  transition with no bound applied, the map the EKF linearizes, and its
  central differences, the check on the model's exact ``jacobian``.
* ``meets_targets``: each belief variance against its bound, over any
  number of features; ``TwinLoop.step`` reads its two variances directly
  and its ``failed`` flag must equal this test's.
* ``joseph_update``: the general batch Kalman update of any observation
  matrix, solved by Cholesky and cross-checked against (I - KH) P.
* ``rank1_joseph`` and ``sequential_fusion``: the rank-1 Joseph update and
  the one-reading-at-a-time fusion, written as loops over nested floats.
* ``rank1_update_nested``: the 2x2 Kalman kernel on a nested-float prior,
  returning (gain, covariance), with every entry of the Joseph form computed
  on its own and each check an ``abs`` or ``math.isfinite`` call;
  ``estimator.rank1_update`` takes and returns flat floats and must return
  its bits and raise its errors.
* ``plan_picks``: the value-of-information planner, min-scanning its
  candidates at every pick, its covariance following ``rank1_joseph`` or a
  given update.
* ``generate_fleet_scalar``: the fleet drawn with one scalar uniform per
  distance and per noise variance, the form of ``sensing.generate_fleet``'s
  single draw of all of them.
* ``noise_std`` and ``observe_one``: one sensor's sqrt(r), and its reading
  with its own standard normal draw, the per-sensor form of the batched
  ``sensing.observe``.
* ``per_call_normals``: a generator as the ``normals`` callable the plant,
  the sensors and the uplinks take, drawing ``standard_normal(n)`` on every
  call, the form ``loop.NormalStream``'s blocks must reproduce.
* ``age_round``: one interval of the age rule written as two steps, every
  age ticked one older, the features older than their threshold due, then
  the closed loops reset to 1; ``AolTracker.violated`` on the last
  interval's tracker and its one transition ``close_loop`` must agree.
* ``reference_episode``: one episode of any scheme, composed from the above,
  ``observe_one`` per sensor and per-link ``channel.uplink_outcome``.
* ``fuse_memoryless_lists``: Traditional's fuse as it read each delivered
  sensor's agent and rebuilt the covariance as lists of lists;
  ``schemes.fuse_memoryless`` reads the fleet's tuples and must keep its bits.
* ``compute_metrics_numpy``: the metrics as numpy reductions of the
  concatenated columns (``np.unique`` counts, ``np.mean`` of every rate);
  ``metrics.compute_metrics`` tallies integers and must keep every bit.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy import linalg as sla

from reverb import channel as ch
from reverb import control as ctl
from reverb import dynamics as dyn
from reverb import estimator as est
from reverb import loop
from reverb import sensing
from reverb.metrics import MetricsSummary
from reverb.errors import InputError, NumericalError, TrainingError
from reverb.nets import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_LR
from reverb.recordio import EPISODE_COLUMNS, EpisodeRecord


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
    v_s = float(value(agent, [transition.state])[0])
    v_next = 0.0 if transition.done else float(value(agent, [transition.next_state])[0])
    return transition.reward + gamma * v_next - v_s


def forward_2d(net, x):
    """Outputs and per-layer activations of a 2-D pass, ``tanh(h @ W + b)`` per hidden layer."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    acts = [h]
    for i in range(net.n_layers):
        z = h @ net.weights[i] + net.biases[i]
        h = np.tanh(z) if i < net.n_layers - 1 else z
        acts.append(h)
    return h, acts


def gaussian_log_prob(raw, mean, log_std):
    """Diagonal-Gaussian log density of raw actions, summed over dimensions."""
    z = (raw - mean) / np.exp(log_std)
    return -0.5 * np.sum(z * z + 2.0 * log_std + ctl._LOG_2PI, axis=1)


def value(agent: ctl.PolicyAgent, states) -> np.ndarray:
    """The critic's value of each state of a batch, one state per row."""
    return forward_2d(agent.critic, agent._scaled(states))[0][:, 0]


def squash(agent: ctl.PolicyAgent, raw) -> ctl.ActionVector:
    """``PolicyAgent.squash`` in numpy: tanh of the force, ``eta_max / (1 + exp(-raw))`` per request."""
    raw = np.asarray(raw, dtype=float)
    force = math.tanh(float(raw[0]))
    accuracy = agent.cfg.eta_max / (1.0 + np.exp(np.minimum(-raw[1:], 709.0)))
    return ctl.ActionVector(force=force, accuracy=tuple(accuracy.tolist()))


def squash_min(agent: ctl.PolicyAgent, raw) -> ctl.ActionVector:
    """``PolicyAgent.squash`` in floats, each request's ``-raw`` clipped by the builtin ``min(-r, 709.0)``."""
    force, r0, r1 = np.asarray(raw, dtype=float).tolist()
    e0, e1 = np.exp((min(-r0, 709.0), min(-r1, 709.0))).tolist()
    eta_max = agent.cfg.eta_max
    return ctl.ActionVector(math.tanh(force), (eta_max / (1.0 + e0), eta_max / (1.0 + e1)))


def adam_step(params, grads, m, v, t: int) -> None:
    """Adam step ``t`` as whole-array expressions, updating ``params``, ``m`` and ``v`` in place."""
    b1c = 1.0 - ADAM_BETA1**t
    b2c = 1.0 - ADAM_BETA2**t
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= ADAM_BETA1
        m_i += (1.0 - ADAM_BETA1) * g
        v_i *= ADAM_BETA2
        v_i += (1.0 - ADAM_BETA2) * g * g
        p -= ADAM_LR * (m_i / b1c) / (np.sqrt(v_i / b2c) + ADAM_EPS)


class AdamState:
    """``adam_step`` over a list of parameter arrays, with its moments and step count."""

    def __init__(self) -> None:
        self.m = self.v = None
        self.t = 0

    def step(self, params, grads) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        adam_step(params, grads, self.m, self.v, self.t)


def backward_list(net, acts, grad_out) -> list:
    """Gradients of sum(grad_out * outputs), a new array per layer in (w0, b0, w1, b1, ...) order."""
    grads = [np.empty(0)] * (2 * net.n_layers)
    delta = np.atleast_2d(grad_out)
    for i in range(net.n_layers - 1, -1, -1):
        h_in, h_out = acts[i], acts[i + 1]
        if i < net.n_layers - 1:
            delta = delta * (1.0 - h_out * h_out)
        grads[2 * i] = h_in.T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
    return grads


def _flat(grads) -> np.ndarray:
    return np.concatenate([g.ravel() for g in grads])


def sample_step_2d(agent: ctl.PolicyAgent, state, rng: np.random.Generator):
    """``PolicyAgent.sample_step`` with the state as a one-row batch and the batch log density."""
    mean = forward_2d(agent.actor, agent._scaled(state))[0][0]
    std = np.exp(agent.log_std)
    raw = mean + std * rng.standard_normal(ctl.ACTION_DIM)
    logp = float(gaussian_log_prob(raw[None, :], mean[None, :], agent.log_std)[0])
    return squash(agent, raw), raw, logp


def ppo_update_batch(agent, batch, opts, rng, log_std_floor=ctl.LOG_STD_MIN) -> None:
    """``control.ppo_update`` as it was: each minibatch gathered and scaled on its own, ``z`` formed twice.

    ``opts`` is the pair of ``AdamState``s, the actor's and the critic's.
    """
    actor_opt, critic_opt = opts
    if not batch:
        raise InputError("update needs a nonempty batch")
    floor = min(log_std_floor, float(agent.log_std.min()))
    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    raws = np.stack([t.raw_action for t in batch])
    logp_old = np.array([t.log_prob for t in batch])
    rewards = np.array([t.reward for t in batch])
    not_done = 1.0 - np.array([t.done for t in batch], dtype=float)
    n = len(batch)
    actor_params = [agent.actor.flat, agent.log_std]
    critic_params = [agent.critic.flat]

    for _ in range(ctl.EPOCHS):
        v_s = value(agent, states)
        v_next = value(agent, next_states) * not_done
        targets = rewards + ctl.GAMMA * v_next
        delta = targets - v_s
        adv = (delta - delta.mean()) / (delta.std() + 1e-8)

        order = rng.permutation(n)
        for start in range(0, n, ctl.MINIBATCH):
            mb = order[start : start + ctl.MINIBATCH]
            x = agent._scaled(states[mb])

            mean, acts = forward_2d(agent.actor, x)
            std = np.exp(agent.log_std)
            logp_new = gaussian_log_prob(raws[mb], mean, agent.log_std)
            ratio = np.exp(logp_new - logp_old[mb])
            a_mb = adv[mb]
            unclipped = ratio * a_mb
            clipped = np.clip(ratio, 1.0 - ctl.CLIP, 1.0 + ctl.CLIP) * a_mb
            active = unclipped <= clipped
            dlogp = np.where(active, ratio * a_mb, 0.0) / len(mb)
            z = (raws[mb] - mean) / std
            grad_mean = -(dlogp[:, None] * z / std)
            grad_log_std = -(dlogp[:, None] * (z * z - 1.0)).sum(axis=0)
            actor_grad = _flat(backward_list(agent.actor, acts, grad_mean))
            if not (np.isfinite(actor_grad).all() and np.isfinite(grad_log_std).all()):
                raise TrainingError("non-finite actor gradients")
            actor_opt.step(actor_params, [actor_grad, grad_log_std])
            np.clip(agent.log_std, floor, ctl.LOG_STD_MAX, out=agent.log_std)

            v_mb, c_acts = forward_2d(agent.critic, x)
            err = v_mb[:, 0] - targets[mb]
            critic_grad = _flat(backward_list(agent.critic, c_acts, (2.0 * err / len(mb))[:, None]))
            if not np.isfinite(critic_grad).all():
                raise TrainingError("non-finite critic gradients")
            critic_opt.step(critic_params, [critic_grad])


def mountain_car_update(x: float, v: float, a: float) -> list[float]:
    """Next (position, velocity): clip v', move, clamp x', stop at the left wall."""
    v2 = v + 0.0015 * a - 0.0025 * math.cos(3.0 * x)
    v2 = min(max(v2, -0.07), 0.07)
    x2 = x + v2
    x2 = min(max(x2, -1.2), 0.6)
    if x2 == -1.2 and v2 < 0.0:
        v2 = 0.0
    return [x2, v2]


def mountain_car_clamp(x, v) -> list:
    """The state bounds: x into [-1.2, 0.6], v into [-0.07, 0.07], then a stop at the left wall."""
    x = min(max(x, -1.2), 0.6)
    v = min(max(v, -0.07), 0.07)
    if x == -1.2 and v < 0.0:
        v = 0.0
    return [x, v]


def mountain_car_step(x: float, v: float, a: float, noise: tuple[float, float]) -> list[float]:
    """One noisy step: the force clipped into [-1, 1], ``mountain_car_update``, ``noise`` added, clamped."""
    a = min(max(float(a), -1.0), 1.0)
    x2, v2 = mountain_car_update(x, v, a)
    return mountain_car_clamp(x2 + noise[0], v2 + noise[1])


def linear_model(a_mat, process_noise_cov=((0.0, 0.0), (0.0, 0.0))) -> SimpleNamespace:
    """s' = A s with no clamp, Jacobian A and the given noise covariance; ``dynamics.step`` adds no noise to it."""
    a_mat = np.asarray(a_mat, dtype=float)
    (q00, q01), (q10, q11) = np.asarray(process_noise_cov, dtype=float).tolist()
    return SimpleNamespace(
        update=lambda s, a: a_mat @ s,
        jacobian=lambda s: a_mat.copy(),
        clamp=lambda s: s,
        process_noise_cov=((q00, q01), (q10, q11)),
        noise_std=None,
    )


# The plant s' = s with no noise: ``estimator.predict`` hands a symmetric belief's numbers back,
# so a round given it fuses the belief it was handed.
STILL = linear_model(np.eye(2))


def mountain_car_free(x: float, v: float, a: float) -> list[float]:
    """Next (position, velocity) with no bound applied: v' = v + 0.0015 a - 0.0025 cos(3x), x' = x + v'."""
    v2 = v + 0.0015 * a - 0.0025 * math.cos(3.0 * x)
    return [x + v2, v2]


def finite_difference_jacobian(state, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``mountain_car_free`` at ``state`` with zero control."""
    s = np.asarray(state, dtype=float)
    jac = np.zeros((2, 2))
    for j in range(2):
        dp = s.copy()
        dm = s.copy()
        dp[j] += h
        dm[j] -= h
        jac[:, j] = np.subtract(mountain_car_free(*dp, 0.0), mountain_car_free(*dm, 0.0)) / (2.0 * h)
    return jac


def meets_targets(belief: est.Belief, variance_bounds) -> tuple[bool, tuple[int, ...]]:
    """Check diag(cov) <= bound per feature (inclusive); return the violating features."""
    cov = belief.cov
    if len(variance_bounds) != len(cov):
        raise InputError("one variance bound per feature is required")
    violating = tuple(k for k, (row, bound) in enumerate(zip(cov, variance_bounds)) if row[k] > bound)
    return not violating, violating


def generate_fleet_scalar(config: sensing.FleetConfig, rng: np.random.Generator) -> sensing.SensorFleet:
    """``sensing.generate_fleet`` with one scalar ``rng.uniform`` per distance and per noise variance."""
    agents = []
    for i in range(config.n_agents):
        k = i % sensing.STATE_FEATURES
        lo, hi = config.noise_var_ranges[k]
        d = float(config.max_distance_m * (1.0 - rng.uniform(0.0, 1.0)))
        agents.append(sensing.SensingAgent(k, rng.uniform(lo, hi), distance_m=d, tx_power_w=config.tx_power_w))
    return sensing.SensorFleet(agents=tuple(agents))


def noise_std(agent: sensing.SensingAgent) -> float:
    """sqrt(r) of one sensor, from its own noise variance."""
    return math.sqrt(agent.noise_var)


def observe_one(agent: sensing.SensingAgent, state, rng: np.random.Generator) -> float:
    """The reading ``s[k] + sqrt(r) z`` of one sensor, with one standard normal draw ``z``."""
    return float(state[agent.feature]) + noise_std(agent) * rng.standard_normal()


def per_call_normals(rng: np.random.Generator):
    """``n -> rng.standard_normal(n).tolist()``: one generator call per take, nothing drawn ahead."""
    return lambda n: rng.standard_normal(n).tolist()


def joseph_update(prior_cov, h, r) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gain and Joseph-form posterior of a batch update, cross-checked against (I-KH)P."""
    prior_cov, h, r = (np.asarray(x, dtype=float) for x in (prior_cov, h, r))
    s_mat = r + h @ prior_cov @ h.T
    gain = sla.cho_solve(sla.cho_factor(s_mat, lower=True), h @ prior_cov).T
    ikh = np.eye(prior_cov.shape[0]) - gain @ h
    cov = ikh @ prior_cov @ ikh.T + gain @ r @ gain.T
    cov = 0.5 * (cov + cov.T)
    if np.max(np.abs(cov - ikh @ prior_cov)) > est.JOSEPH_TOL:
        raise NumericalError("Joseph-form and (I-KH)P posteriors disagree")
    return gain, cov


def rank1_joseph(p, k, r):
    """The rank-1 Joseph update of a nested-float prior of any size, written as loops."""
    s = p[k][k] + r
    gain = [row[k] / s for row in p]
    ikh_p = [[pij - gi * pkj for pij, pkj in zip(row, p[k])] for gi, row in zip(gain, p)]
    joseph = [
        [aij - row[k] * gj + r * (gi * gj) for aij, gj in zip(row, gain)]
        for gi, row in zip(gain, ikh_p)
    ]
    n = len(p)
    return [[0.5 * (joseph[i][j] + joseph[j][i]) for j in range(n)] for i in range(n)]


def rank1_update_nested(p, k, r):
    """Kalman gain and Joseph-form posterior of a nested 2x2 prior and one reading: ((g0, g1), cov)."""
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
    a00, a01 = p00 - g0 * pk0, p01 - g0 * pk1
    a10, a11 = p10 - g1 * pk0, p11 - g1 * pk1
    a0k, a1k = (a00, a10) if k == 0 else (a01, a11)
    j00 = a00 - a0k * g0 + r * (g0 * g0)
    j01 = a01 - a0k * g1 + r * (g0 * g1)
    j10 = a10 - a1k * g0 + r * (g1 * g0)
    j11 = a11 - a1k * g1 + r * (g1 * g1)
    c00, c01, c10, c11 = 0.5 * (j00 + j00), 0.5 * (j01 + j10), 0.5 * (j10 + j01), 0.5 * (j11 + j11)
    if not (
        abs(c00 - a00) <= est.JOSEPH_TOL
        and abs(c01 - a01) <= est.JOSEPH_TOL
        and abs(c10 - a10) <= est.JOSEPH_TOL
        and abs(c11 - a11) <= est.JOSEPH_TOL
    ):
        raise NumericalError("Joseph-form and (I-KH)P posteriors disagree")
    return (g0, g1), ((c00, c01), (c10, c11))


def sequential_fusion(mean, p, readings):
    """One rank-1 Joseph update and mean update per reading (k, r, y), in order, written as loops."""
    m = list(mean)
    for k, r, y in readings:
        s = p[k][k] + r
        gain = [row[k] / s for row in p]
        innovation = y - m[k]
        m = [mi + gi * innovation for mi, gi in zip(m, gain)]
        p = rank1_joseph(p, k, r)
    return m, p


def plan_picks(prior_cov, bounds, violated, agents, cap, update=rank1_joseph):
    """The planner step by step: (sensor ids in pick order, features serviced for age, covariance).

    Each stale feature, lowest first, gets its nearest available sensor; then,
    while some variance exceeds its bound, the coverable feature with the
    largest variance-to-bound ratio (ties: the lowest) gets its quietest
    available sensor. Candidates are min-scanned at every pick, and the
    would-be covariance follows ``update(cov, k, r)``. The default,
    ``rank1_joseph``, carries the package's bits, so no pick can turn on a
    last-bit difference. A sensor's id is its index in ``agents``.
    """
    available = set(range(len(agents)))
    cov = [list(row) for row in prior_cov]
    selected, serviced = [], []

    def candidates(k):
        return [i for i in available if agents[i].feature == k]

    def pick(i):
        nonlocal cov
        selected.append(i)
        available.discard(i)
        cov = update(cov, agents[i].feature, agents[i].noise_var)

    for k in sorted(violated):
        if len(selected) >= cap:
            break
        if candidates(k):
            pick(min(candidates(k), key=lambda i: (agents[i].distance_m, i)))
            serviced.append(k)
    features = range(len(cov))
    while len(selected) < cap and any(cov[k][k] > bounds[k] for k in features):
        ratios = [(cov[k][k] / bounds[k], -k) for k in features if candidates(k)]
        if not ratios:
            break
        k = -max(ratios)[1]
        pick(min(candidates(k), key=lambda i: (agents[i].noise_var, i)))
    return selected, serviced, cov


def scheme_selection(scheme, agents, cov, bounds, violated, cap):
    """A radio scheme's transmission set, indices in ``agents`` in order, from the scheme's definition."""
    ids = range(len(agents))
    if scheme == "AoL-REVERB":
        return plan_picks(cov, bounds, violated, agents, cap)[0]
    if scheme == "CB-Greedy":
        return sorted(ids, key=lambda i: (agents[i].distance_m, i))[:cap]
    if scheme == "EB-Greedy":
        return sorted(ids, key=lambda i: (agents[i].noise_var, i))[:cap]
    if scheme == "Traditional":
        return sorted(min(i for i in ids if agents[i].feature == k) for k in range(len(cov)))
    raise InputError(f"no reference for scheme {scheme!r}")


def age_round(ages, thresholds, closes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(the features due this interval, the ages after it): tick every age, read the due ones, then close."""
    ticked = [a + 1 for a in ages]
    due = tuple(k for k, (a, t) in enumerate(zip(ticked, thresholds)) if a > t)
    return due, tuple(1 if c else a for a, c in zip(ticked, closes))


def reference_episode(cfg, scheme, policy, seed) -> EpisodeRecord:
    """One episode of ``scheme`` as ``schemes.run_episode`` logs it, assembled independently.

    The plant step, the blind prediction, the fleet and the link sizing are
    the package's (each has its own tests); everything between them is
    written here: the generator streams and the order of their draws, the
    targets, the selection, one ``observe_one`` per selected sensor and
    then one ``channel.uplink_outcome`` per link, fusion of the delivered
    readings by ``sequential_fusion`` (Traditional: the raw reading replaces
    the feature's estimate; Perfect: the true state, with zero covariance),
    the ages, the reward and the record.
    """
    fleet_seq, env_seq = np.random.default_rng(seed).bit_generator.seed_seq.spawn(2)
    agents = sensing.generate_fleet(cfg.fleet, np.random.default_rng(fleet_seq)).agents
    rng = np.random.default_rng(env_seq)
    normals = per_call_normals(rng)
    model = dyn.plant(cfg.process_noise_var)
    state = np.array([rng.uniform(dyn.START_POSITION_LOW, dyn.START_POSITION_HIGH), 0.0])
    var = cfg.init_belief_var
    mean = (state + math.sqrt(var) * rng.standard_normal(2)).tolist()
    cov = [[var, 0.0], [0.0, var]]
    ages = [0] * len(cfg.aol_thresholds)
    budgets = {}
    record = EpisodeRecord(scheme=scheme)
    for qi in range(cfg.qi_cap):
        action = policy(tuple(mean))
        force, eta = action.force, list(action.accuracy)
        state = dyn.step(model, state, force, normals)
        done = bool(state[0] >= dyn.GOAL_POSITION)
        prior = est.predict(est.Belief(mean, cov), force, model)
        mean, cov = list(prior.mean), [list(row) for row in prior.cov]
        violated, _ = age_round(ages, cfg.aol_thresholds, [False] * len(ages))
        bounds = [min(x, 1.0 / e) if e > 0.0 else x for x, e in zip(cfg.required_var, eta)]
        selected, delivered = [], []
        if scheme == "Perfect":
            mean, cov = list(state), [[0.0, 0.0], [0.0, 0.0]]
        else:
            selected = scheme_selection(scheme, agents, cov, bounds, violated, cfg.cap)
            for i in selected:
                if i not in budgets:
                    a = agents[i]
                    budgets[i] = ch.optimal_bandwidth(cfg.channel, a.tx_power_w, a.distance_m, agent_id=i)
            values = [observe_one(agents[i], state, rng) for i in selected]
            arrived = [ch.uplink_outcome(cfg.channel, budgets[i], rng).delivered for i in selected]
            delivered = [i for i, ok in zip(selected, arrived) if ok]
            readings = [
                (agents[i].feature, agents[i].noise_var, y)
                for i, y, ok in zip(selected, values, arrived)
                if ok
            ]
            if scheme == "Traditional":
                for k, r, y in readings:
                    mean[k] = y
                    cov = [[0.0 if k in (i, j) else c for j, c in enumerate(row)] for i, row in enumerate(cov)]
                    cov[k][k] = r
            else:
                mean, cov = sequential_fusion(mean, cov, readings)
        closed = {0, 1} if scheme == "Perfect" else {agents[i].feature for i in delivered}
        _, ages = age_round(ages, cfg.aol_thresholds, [k in closed for k in range(len(ages))])
        reward = -loop.ACTION_COST_WEIGHT * force**2
        if done:
            reward += loop.TERMINATION_REWARD
        row = dict(
            qi=qi,
            true_pos=state[0],
            true_vel=state[1],
            belief_pos=mean[0],
            belief_vel=mean[1],
            cov_pos=cov[0][0],
            cov_vel=cov[1][1],
            target_pos=bounds[0],
            target_vel=bounds[1],
            n_selected=len(selected),
            selected=tuple(selected),
            delivered=tuple(delivered),
            prbs=sum(budgets[i].prbs for i in selected),
            age_pos=ages[0],
            age_vel=ages[1],
            reward=reward + cfg.control.kappa * ((eta[0] + eta[1]) / 2),
            force=force,
            eta_pos=eta[0],
            eta_vel=eta[1],
            failed=int(any(cov[k][k] > b for k, b in enumerate(bounds))),
        )
        record.append(tuple(row[c] for c in EPISODE_COLUMNS))
        if done:
            record.reached_goal = True
            break
    return record


def fuse_memoryless_lists(prior, selected, delivered, values, fleet, steps):
    """Traditional's update, each delivered feature's estimate replaced by its raw reading."""
    mean = list(prior.mean)
    cov = [list(row) for row in prior.cov]
    arrived = set(delivered)
    for agent_id, y in zip(selected, values):
        if agent_id not in arrived:
            continue
        agent = fleet.agents[agent_id]
        k = agent.feature
        mean[k] = y
        for row in cov:
            row[k] = 0.0
        cov[k] = [0.0] * len(cov)
        cov[k][k] = agent.noise_var
    return est.Belief(mean, cov)


def _cdf_numpy(values: np.ndarray) -> dict:
    if values.size == 0:
        return {}
    uniq, counts = np.unique(values, return_counts=True)
    cum = np.cumsum(counts) / values.size
    return {int(v): float(c) for v, c in zip(uniq, cum)}


def compute_metrics_numpy(records) -> MetricsSummary:
    """``metrics.compute_metrics`` as numpy reductions of the records' concatenated columns."""
    if not records:
        raise InputError("need at least one episode record")
    scheme = records[0].scheme
    n_sel = np.concatenate([np.asarray(r.columns["n_selected"]) for r in records])
    prbs = np.concatenate([np.asarray(r.columns["prbs"]) for r in records])
    failed = np.concatenate([np.asarray(r.columns["failed"]) for r in records])
    hist = {0: {}, 1: {}}
    for r in records:
        for k, col in ((0, "age_pos"), (1, "age_vel")):
            ages, counts = np.unique(np.asarray(r.columns[col]), return_counts=True)
            for a, c in zip(ages, counts):
                hist[k][int(a)] = hist[k].get(int(a), 0) + int(c)
    ex = [np.array(r.columns["true_pos"]) - np.array(r.columns["belief_pos"]) for r in records]
    ev = [np.array(r.columns["true_vel"]) - np.array(r.columns["belief_vel"]) for r in records]
    return MetricsSummary(
        scheme=scheme,
        episodes=len(records),
        success_rate=float(np.mean([r.reached_goal for r in records])),
        mean_qis=float(np.mean([len(r.rows) for r in records])),
        mrmse=float(np.mean([float(np.mean(np.hypot(x, v))) for x, v in zip(ex, ev)])),
        failure_prob=float(np.mean(failed)),
        mean_total_prbs=float(np.mean([int(sum(r.columns["prbs"])) for r in records])),
        mean_selected=float(np.mean(n_sel)),
        aol_hist=hist,
        prb_cdf=_cdf_numpy(prbs),
        selected_cdf=_cdf_numpy(n_sel),
    )
