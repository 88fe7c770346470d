"""Scheduling schemes: the scheduler-driven policy and the four benchmarks.

There is one round pipeline, ``scheduler.run_round``; a radio scheme is a
selector (which sensors transmit) plus a fuse (how what arrived corrects the
belief):

* ``AoL-REVERB``  -- the full planner (age servicing + value-of-information),
  EKF fusion of the delivered observations.
* ``CB-Greedy``   -- the ``cap`` nearest sensors every interval, EKF fusion.
* ``EB-Greedy``   -- the ``cap`` lowest-noise sensors every interval, EKF fusion.
* ``Traditional`` -- the lowest-id sensor of each feature every interval,
  belief replaced by the raw observation (no memory across intervals, the
  pre-twin baseline).

A radio round predicts the prior from the last belief before it selects
(``scheduler.run_round``). A fuse receives the round's readings, in
selection order, as the list of Python floats ``sensing.observe`` returns,
and reads each sensor's feature and noise from the fleet's id-indexed
tuples. ``Perfect`` uses no radio and no prior: its round sets the belief to
the true next state, closes every feature's loop and takes no normals.
"""

from __future__ import annotations

import functools

import numpy as np

from . import estimator as est
from . import scheduler as sched
from .config import RunConfig
from .control import ActionVector, PolicyAgent, scripted_controller, shaped_reward
from .errors import ConfigError
from .loop import TwinLoop
from .recordio import EpisodeRecord
from .scheduler import ScheduleResult
from .sensing import generate_fleet

# Perfect's every round: nothing selected, nothing delivered, no PRB.
NO_RADIO = ScheduleResult(selected=(), delivered=(), total_prbs=0)


def perfect_round(belief, force, plant, targets, aol, fleet, params, links, cap, true_state, normals):
    posterior = est.Belief(true_state, ((0.0, 0.0), (0.0, 0.0)))
    return NO_RADIO, posterior, aol.close_loop(range(len(aol.ages)))


def select_reverb(prior, targets, aol, fleet, cap):
    """AoL-REVERB: the planner's (picks, steps), its sensor ids in order and their rank-1 updates."""
    return sched.plan_selection(prior.cov, targets, aol.violated(), fleet, cap)


def select_nearest(prior, targets, aol, fleet, cap):
    """CB-Greedy: the ``cap`` nearest sensors (ties: lowest id)."""
    return list(fleet.nearest[:cap]), ()


def select_quietest(prior, targets, aol, fleet, cap):
    """EB-Greedy: the ``cap`` lowest-noise sensors (ties: lowest id)."""
    return list(fleet.quietest[:cap]), ()


def select_traditional(prior, targets, aol, fleet, cap):
    """Fixed sensor set: the lowest-id sensor of each feature, in id order."""
    return fleet.lowest_per_feature, ()


def fuse_memoryless(prior, selected, delivered, values, fleet, steps):
    """Traditional's update: a delivered feature's estimate is the raw observation.

    Its variance becomes the sensor's r and its covariances with the other
    feature 0. Features without a delivered observation keep the predicted
    prior. The selector plans nothing, so ``steps`` is empty.
    """
    (m0, m1), ((c00, c01), (c10, c11)) = prior.mean, prior.cov
    features, noise_vars = fleet.features, fleet.noise_vars
    arrived = set(delivered)
    for i, y in zip(selected, values):
        if i not in arrived:
            continue
        if features[i] == 0:
            m0, c00 = y, noise_vars[i]
        else:
            m1, c11 = y, noise_vars[i]
        c01 = c10 = 0.0
    return est.Belief((m0, m1), ((c00, c01), (c10, c11)))


SELECTORS = {"AoL-REVERB": select_reverb, "CB-Greedy": select_nearest, "EB-Greedy": select_quietest}


def make_round(scheme: str):
    """The round ``TwinLoop.step`` calls once per interval for ``scheme``.

    The fuse is looked up here, when the round is made, so a replacement of
    ``scheduler.fuse_delivered`` installed before then sees every call.
    """
    if scheme == "Perfect":
        return perfect_round
    if scheme == "Traditional":
        return functools.partial(sched.run_round, select_traditional, fuse=fuse_memoryless)
    if scheme in SELECTORS:
        return functools.partial(sched.run_round, SELECTORS[scheme], fuse=sched.fuse_delivered)
    raise ConfigError(f"unknown scheme {scheme!r}")


def make_policy(cfg: RunConfig, agent: PolicyAgent | None = None):
    """Deterministic control policy: trained mean action, or the scripted pump.

    The pump's two actions, force +1 and -1 with the run's
    ``scripted_accuracy``, are built once here, and the policy returns them
    on every call.
    """
    if agent is not None:
        return agent.act_mean
    push, pull = ActionVector(1.0, cfg.scripted_accuracy), ActionVector(-1.0, cfg.scripted_accuracy)
    return functools.partial(scripted_controller, push=push, pull=pull)


def build_loop(cfg: RunConfig, scheme: str, rng: np.random.Generator) -> TwinLoop:
    fleet_rng, env_rng = (np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(2))
    return TwinLoop(cfg, generate_fleet(cfg.fleet, fleet_rng), make_round(scheme), env_rng)


def run_episode(cfg: RunConfig, scheme: str, policy, seed: int) -> EpisodeRecord:
    """Simulate one seeded episode of the given scheme and log every interval."""
    loop = build_loop(cfg, scheme, np.random.default_rng(seed))
    belief = loop.belief
    record = EpisodeRecord(scheme=scheme)
    request = None
    for qi in range(cfg.qi_cap):
        action: ActionVector = policy(belief.mean)
        accuracy = action.accuracy
        res = loop.step(action.force, accuracy)
        if accuracy is not request:
            # -0.0 is the identity of float addition, so this is the bonus, bit for bit; a tuple
            # cannot change in place, so the same one gives the same bonus again.
            bonus = shaped_reward(-0.0, accuracy, cfg.control.kappa)
            request = accuracy if accuracy.__class__ is tuple else None
        reward = res.reward_env + bonus
        (true_pos, true_vel), (belief_pos, belief_vel) = res.true_state, res.belief.mean
        (cov_pos, _), (_, cov_vel) = res.belief.cov
        target_pos, target_vel = res.targets
        age_pos, age_vel = loop.aol.ages
        eta_pos, eta_vel = accuracy
        schedule = res.schedule
        record.append((
            qi, true_pos, true_vel, belief_pos, belief_vel, cov_pos, cov_vel, target_pos, target_vel,
            len(schedule.selected), schedule.selected, schedule.delivered, schedule.total_prbs,
            age_pos, age_vel, reward, action.force, eta_pos, eta_vel, int(res.failed),
        ))
        belief = res.belief
        if res.done:
            record.reached_goal = True
            break
    return record
