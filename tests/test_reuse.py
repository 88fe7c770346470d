"""What a twin step reuses instead of deriving again, each checked against deriving it anew.

The scripted policy's two actions, built once per policy, the last bounds
while the request is an equal tuple, the failure test on the posterior's two
variances, the prediction's direct read of the belief mean and a blind
round's skipped draws.
"""

import math
import pickle
from unittest import mock

import numpy as np
import pytest

from reverb import control as ctl
from reverb import dynamics as dyn
from reverb import estimator as est
from reverb import loop as loop_module
from reverb import scheduler as sched
from reverb import schemes
from reverb.aol import AolTracker
from reverb.config import RunConfig, config_from_dict
from reverb.errors import InputError

import oracles

# The pump's two actions where only their force is read.
PUSH, PULL = ctl.ActionVector(1.0, (0.0, 0.0)), ctl.ActionVector(-1.0, (0.0, 0.0))


def test_the_scripted_policy_pickles_and_returns_its_two_actions():
    cfg = config_from_dict({"scripted_accuracy": [100.0, 200.0]})
    policy = schemes.make_policy(cfg)
    up, down = policy((0.0, 0.01)), policy((0.0, -0.01))
    assert up == ctl.ActionVector(1.0, (100.0, 200.0)) and down == ctl.ActionVector(-1.0, (100.0, 200.0))
    # The same two objects on every call, at rest included.
    assert policy((0.1, 0.0)) is up and policy((0.1, -0.02)) is down
    copy = pickle.loads(pickle.dumps(policy))
    for velocity in (0.01, 0.0, -0.01):
        assert copy((0.0, velocity)) == policy((0.0, velocity))
    assert copy((0.0, 0.01)) is copy((0.2, 0.03)) and copy((0.0, -0.01)) is copy((0.2, -0.03))
    for _ in range(2):  # a bad state fails every call
        with pytest.raises(InputError, match="state must be finite"):
            policy((0.0, math.nan))


def test_a_negative_zero_scripted_accuracy_reaches_the_record_as_negative_zero():
    records = []
    for first in (0.0, -0.0, 0.0):  # equal requests of either sign, one after another through the pump
        cfg = config_from_dict({"scripted_accuracy": [first, 500.0], "qi_cap": 20})
        records.append(schemes.run_episode(cfg, "AoL-REVERB", schemes.make_policy(cfg), seed=4))
        signs = {math.copysign(1.0, eta) for eta in records[-1].columns["eta_pos"]}
        assert signs == {math.copysign(1.0, first)}
    # Either zero imposes nothing, so the bounds are the same.
    assert records[0].columns["target_pos"] == records[1].columns["target_pos"]


def run_steps(requests, seed=5):
    """Step a headline AoL-REVERB loop once per request; (results, compute_targets call count)."""
    cfg = RunConfig()
    loop = schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(seed))
    with mock.patch.object(loop_module, "compute_targets", wraps=sched.compute_targets) as compute:
        results = [loop.step(1.0, request) for request in requests]
    return cfg, results, compute.call_count


def test_bounds_are_reused_while_the_request_is_an_equal_tuple():
    cfg, results, calls = run_steps([(100.0, 900.0), (100.0, 900.0), (100.0, 900.0), (400.0, 900.0)])
    assert calls == 2
    assert results[1].targets is results[0].targets and results[2].targets is results[0].targets
    for res, request in zip(results, [(100.0, 900.0)] * 3 + [(400.0, 900.0)]):
        assert res.targets == sched.compute_targets(cfg.required_var, request)


def test_a_request_list_mutated_in_place_gets_fresh_bounds():
    request = [100.0, 900.0]
    cfg = RunConfig()
    loop = schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(5))
    first = loop.step(1.0, request).targets
    request[0] = 400.0
    second = loop.step(1.0, request).targets
    assert first == sched.compute_targets(cfg.required_var, (100.0, 900.0))
    assert second == sched.compute_targets(cfg.required_var, (400.0, 900.0)) != first
    _, _, calls = run_steps([request, request, request])
    assert calls == 3
    # An array equal to the last tuple is not compared with it; its bounds are computed.
    _, results, calls = run_steps([(100.0, 900.0), np.array([100.0, 900.0]), np.array([100.0, 900.0])])
    assert calls == 3 and results[1].targets == results[2].targets == results[0].targets


def test_a_nan_request_raises_on_every_step():
    nan_request = (math.nan, 900.0)
    cfg = RunConfig()
    loop = schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(5))
    loop.step(1.0, (100.0, 900.0))
    for _ in range(3):  # the same tuple object each time
        with pytest.raises(InputError, match="nonnegative"):
            loop.step(1.0, nan_request)
    assert loop.step(1.0, (100.0, 900.0)).targets == sched.compute_targets(cfg.required_var, (100.0, 900.0))


@pytest.mark.parametrize("scheme", ["AoL-REVERB", "Traditional", "Perfect"])
def test_the_failure_flag_is_the_oracle_target_check(scheme):
    cfg = config_from_dict({"channel": {"outage_target": 0.3}, "qi_cap": 120})
    loop = schemes.build_loop(cfg, scheme, np.random.default_rng(8))
    flags = []
    for qi in range(cfg.qi_cap):
        accuracy = (3000.0, 9000.0) if qi % 3 else (0.0, 0.0)
        res = loop.step(ctl.scripted_controller(loop.belief.mean, PUSH, PULL).force, accuracy)
        met, _ = oracles.meets_targets(res.belief, res.targets)
        assert res.failed is (not met)
        flags.append(res.failed)
    if scheme == "AoL-REVERB":
        assert True in flags and False in flags


@pytest.mark.parametrize("mean", [(math.inf, 0.0), (0.0, math.inf), (0.0, -math.inf), (math.nan, 0.0), (0.0, math.nan)])
def test_predict_rejects_a_mean_made_non_finite_after_construction(mean):
    """The model would clip an infinite velocity to a finite one, so predict checks the mean it reads."""
    belief = est.Belief((-0.5, 0.01), ((1e-3, 0.0), (0.0, 1e-3)))
    belief.mean = mean
    with pytest.raises(InputError, match="mean must be finite"):
        est.predict(belief, 0.0, dyn.plant(RunConfig().process_noise_var))


def test_a_blind_round_leaves_the_generator_untouched():
    """A round that selects nothing calls ``normals`` zero times, so the stream stays where it was."""
    cfg = RunConfig()
    loop = schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(5))
    belief = est.Belief((-0.5, 0.01), ((1e-6, 0.0), (0.0, 1e-6)))
    normals = mock.Mock(wraps=loop.normals)
    result, posterior, aol = sched.run_round(
        schemes.select_reverb, sched.fuse_delivered, belief, 0.0, oracles.STILL, (1e-3, 1e-3),
        AolTracker((1, 1), (5, 5)), loop.fleet, cfg.channel, loop.links, cfg.cap, loop.state, normals,
    )
    assert result is sched.BLIND and result.blind and result.total_prbs == 0 and result.delivered == ()
    assert normals.mock_calls == []
    # The round makes its one age transition and closes none.
    assert posterior == belief and posterior is not belief and aol.ages == (2, 2)
