import math
from types import SimpleNamespace

import numpy as np
import pytest

from reverb import dynamics as dyn
from reverb import estimator as est
from reverb import scheduler as sched
from reverb import schemes
from reverb.aol import AolTracker
from reverb.channel import ChannelParams
from reverb.config import SCHEMES, RunConfig, config_from_dict
from reverb.control import ActionVector, scripted_controller
from reverb.errors import InputError
from reverb.schemes import select_reverb
from reverb.sensing import SensingAgent, SensorFleet

from oracles import STILL, joseph_update, per_call_normals


def make_fleet(spec):
    """spec: iterable of (feature, noise_var, distance) tuples, ids in order."""
    agents = [
        SensingAgent(feature, var, distance_m=dist, tx_power_w=0.02) for feature, var, dist in spec
    ]
    return SensorFleet(agents=tuple(agents))


def test_compute_targets_table_values():
    t = sched.compute_targets([0.01, 0.002], [50.0, 1000.0])
    assert np.allclose(t, [0.01, 0.001])


def test_compute_targets_zero_request_is_vacuous():
    t = sched.compute_targets([0.01, 0.002], [0.0, 0.0])
    assert np.allclose(t, [0.01, 0.002])


def test_compute_targets_elementwise_min():
    t = sched.compute_targets([0.01, 0.002], [200.0, 200.0])
    assert np.allclose(t, [0.005, 0.002])


@pytest.mark.parametrize(
    "required_var, accuracy, message",
    [
        ([0.01, 0.002], [50.0, -1.0], "accuracy requests must be nonnegative"),
        ([0.01, -0.002], [0.0, 0.0], "variance bounds must be strictly positive"),
        ([0.0, 0.002], [0.0, 10.0], "variance bounds must be strictly positive"),
        ([0.01, 0.002], [math.inf, 0.0], "variance bounds must be strictly positive"),
        # A bad request is reported before a bad bound, wherever either sits.
        ([-0.01, 0.002], [0.0, -1.0], "accuracy requests must be nonnegative"),
        # NaN is neither a request nor a bound: it would drop the request or never be violated.
        ([0.01, 0.002], [math.nan, 1.0], "accuracy requests must be nonnegative"),
        ([math.nan, 0.002], [0.0, 0.0], "variance bounds must be strictly positive"),
    ],
    ids=["negative-request", "negative-bound", "zero-bound", "infinite-request", "both", "nan-request", "nan-bound"],
)
def test_compute_targets_rejects_with_one_line(required_var, accuracy, message):
    with pytest.raises(InputError) as exc:
        sched.compute_targets(required_var, accuracy)
    assert str(exc.value) == message


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_round_stores_its_prb_total_and_closes_delivered_loops(scheme):
    """Every round stores ``total_prbs`` as its picks' PRB sum from the link table, lost links included.

    Outages are made frequent (outage target 0.3) so that rounds with lost
    links occur; the scripted accuracy request alternates with no request,
    so AoL-REVERB has blind intervals as well as scheduled ones. After each
    round, exactly the delivered sensors' features are one interval old
    (every feature under Perfect).
    """
    cfg = config_from_dict({"channel": {"outage_target": 0.3}, "qi_cap": 80})
    loop = schemes.build_loop(cfg, scheme, np.random.default_rng(3))
    results = []
    for qi in range(cfg.qi_cap):
        request = cfg.scripted_accuracy if qi % 2 else (0.0, 0.0)
        action = scripted_controller(loop.belief.mean, ActionVector(1.0, request), ActionVector(-1.0, request))
        ages = loop.aol.ages
        result = loop.step(action.force, action.accuracy).schedule
        assert result.total_prbs == sum(loop.links[i][0].prbs for i in result.selected)
        assert result.blind == (not result.selected)
        closed = {loop.fleet.agents[i].feature for i in result.delivered}
        if scheme == "Perfect":
            closed = set(range(len(ages)))
        assert loop.aol.ages == tuple(1 if k in closed else a + 1 for k, a in enumerate(ages))
        results.append(result)
    lost = [r for r in results if len(r.delivered) < len(r.selected)]
    if scheme == "Perfect":
        assert all(r.blind and r.total_prbs == 0 for r in results)
    else:
        assert lost
    if scheme == "AoL-REVERB":
        assert any(r.blind for r in results) and not all(r.blind for r in results)


def plan_aol_only(violated, fleet, cap=3):
    """Plan with targets that already hold, so only stale features draw picks: (picks, their features)."""
    targets = np.array([1.0, 1.0])
    selected, _ = sched.plan_selection(np.diag([1e-4, 1e-4]), targets, violated, fleet, cap)
    return selected, [fleet.features[i] for i in selected]


def test_service_aol_picks_nearest():
    fleet = make_fleet([(0, 1e-3, 12.0), (0, 5e-3, 5.0), (1, 1e-3, 3.0)])
    assert plan_aol_only((0,), fleet) == ([1], [0])


def test_service_aol_empty_and_disjoint():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 9.0)])
    assert plan_aol_only((), fleet) == ([], [])
    assert plan_aol_only((0, 1), fleet) == ([0, 1], [0, 1])


class IndexOnly(tuple):
    """A candidate queue that may be measured and indexed, but not iterated."""

    def __iter__(self):
        raise AssertionError("the planner walked another feature's queue")


@pytest.mark.parametrize("stale", [0, 1])
def test_age_pick_leaves_only_its_own_features_queue(stale):
    """A stale feature's age pick is dropped from that feature's value-of-information queue alone.

    The other feature's queue cannot hold the pick, so the planner only
    measures and indexes it; here it cannot be iterated, and the picks are
    the plain fleet's.
    """
    fleet = make_fleet([(k % 2, 1e-3 * (1 + k % 5), 2.0 + k) for k in range(10)])
    other = 1 - stale
    queues = {stale: fleet.quietest_first[stale], other: IndexOnly(fleet.quietest_first[other])}
    guarded = SimpleNamespace(noise_vars=fleet.noise_vars, nearest_first=fleet.nearest_first, quietest_first=queues)
    prior, targets = np.diag([1e-2, 1e-2]), np.array([1e-5, 1e-5])
    picks, _ = sched.plan_selection(prior, targets, (stale,), guarded, 8)
    assert picks == sched.plan_selection(prior, targets, (stale,), fleet, 8)[0]
    assert picks[0] == fleet.nearest_first[stale][0] and picks.count(picks[0]) == 1
    assert {fleet.features[i] for i in picks[1:]} == {0, 1}


def planned_cov(prior_cov, steps):
    """The planned covariance: the last rank-1 step's, the prior's when nothing was picked."""
    return np.array(steps[-1][2:]).reshape(2, 2) if steps else np.asarray(prior_cov, dtype=float)


def picked_features(fleet, prior_diag, bounds, cap):
    """Features of the value-of-information picks, no stale features."""
    targets = np.array(bounds)
    selected, _ = sched.plan_selection(np.diag(prior_diag), targets, (), fleet, cap)
    return [fleet.agents[i].feature for i in selected]


def test_select_feature_ratio_argmax():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    k = picked_features(fleet, [0.02, 0.001], [0.01, 0.002], cap=1)[0]
    assert k == 0  # ratios 2.0 vs 0.5


def test_select_feature_skips_uncovered():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    # after the first pick the max-ratio feature (0: 9.5 vs 5.0) has no available sensor left
    k = picked_features(fleet, [0.02, 0.0005], [1e-4, 1e-4], cap=2)[1]
    assert k == 1


def test_select_feature_tie_goes_low():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    k = picked_features(fleet, [0.02, 0.02], [0.01, 0.01], cap=1)[0]
    assert k == 0


def test_blind_when_targets_already_met():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    targets = np.array([0.01, 0.002])
    prior = est.Belief(np.zeros(2), np.diag([1e-4, 1e-4]))
    aol = AolTracker((1, 1), (5, 5))
    result, post, aol2 = sched.run_round(
        select_reverb, prior, 0.0, STILL, targets, aol, fleet, ChannelParams(), {}, 3, np.zeros(2),
        per_call_normals(np.random.default_rng(0)), fuse=sched.fuse_delivered,
    )
    assert result.blind and result.selected == ()
    assert np.array_equal(post.cov, prior.cov)
    assert np.array_equal(post.mean, prior.mean)
    assert aol2.ages == aol.ages


def test_single_violation_picks_min_noise_agent():
    fleet = make_fleet([(0, 8e-3, 2.0), (0, 1e-3, 19.0), (1, 1e-3, 3.0)])
    targets = np.array([0.01, 0.002])
    selected, _ = sched.plan_selection(np.diag([0.05, 1e-4]), targets, (), fleet, cap=1)
    assert selected == [1]  # lowest measurement noise, not nearest


def test_aol_service_joins_even_if_targets_hold():
    fleet = make_fleet([(0, 8e-3, 2.0), (0, 1e-3, 19.0), (1, 1e-3, 3.0)])
    targets = np.array([0.01, 0.002])
    selected, _ = sched.plan_selection(np.diag([1e-4, 1e-4]), targets, (0,), fleet, cap=3)
    assert selected == [0]  # nearest position sensor services the stale loop
    assert fleet.features[selected[0]] == 0


def oracle_plan(prior_cov, bounds, violated, agents, cap):
    """Independent step-by-step re-implementation of the selection loop.

    agents: list of dicts with id, feature, var, dist. Covariance recursion
    done with the plain textbook update and an explicit inverse.
    """
    available = {a["id"] for a in agents}
    cov = np.array(prior_cov, dtype=float)
    sel = []

    def fuse(cov, agent):
        h = np.zeros((1, 2))
        h[0, agent["feature"]] = 1.0
        s = agent["var"] + (h @ cov @ h.T)[0, 0]
        gain = cov @ h.T / s
        return cov - gain @ (h @ cov)

    for k in sorted(violated):
        if len(sel) >= cap:
            break
        cands = [a for a in agents if a["feature"] == k and a["id"] in available]
        if not cands:
            continue
        best = min(cands, key=lambda a: (a["dist"], a["id"]))
        sel.append(best["id"])
        available.discard(best["id"])
        cov = fuse(cov, best)
    while len(sel) < cap:
        diag = np.diag(cov)
        if not np.any(diag > bounds):
            break
        best_k, best_ratio = None, -np.inf
        for k in (0, 1):
            if not any(a["feature"] == k and a["id"] in available for a in agents):
                continue
            if diag[k] / bounds[k] > best_ratio:
                best_k, best_ratio = k, diag[k] / bounds[k]
        if best_k is None:
            break
        cands = [a for a in agents if a["feature"] == best_k and a["id"] in available]
        best = min(cands, key=lambda a: (a["var"], a["id"]))
        sel.append(best["id"])
        available.discard(best["id"])
        cov = fuse(cov, best)
    return sel


def random_instance(rng):
    m = int(rng.integers(2, 7))
    cap = int(rng.integers(1, 4))
    spec = []
    agents = []
    for i in range(m):
        feature = int(rng.integers(0, 2)) if i >= 2 else i  # both features covered
        var = float(rng.uniform(1e-4, 2e-2))
        dist = float(rng.uniform(0.5, 20.0))
        spec.append((feature, var, dist))
        agents.append({"id": i, "feature": feature, "var": var, "dist": dist})
    a = rng.standard_normal((2, 2)) * 0.05
    prior_cov = a @ a.T + np.diag(rng.uniform(1e-5, 2e-2, 2))
    bounds = rng.uniform(1e-4, 1e-2, 2)
    ages = tuple(int(x) for x in rng.integers(1, 8, 2))
    thresholds = tuple(int(x) for x in rng.integers(1, 6, 2))
    return spec, agents, prior_cov, bounds, ages, thresholds, cap


def test_selection_matches_independent_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        spec, agents, prior_cov, bounds, ages, thresholds, cap = random_instance(rng)
        fleet = make_fleet(spec)
        tracker = AolTracker(ages, thresholds)
        selected, steps = sched.plan_selection(prior_cov, bounds, tracker.violated(), fleet, cap)
        want = oracle_plan(prior_cov, bounds, tracker.violated(), agents, cap)
        assert selected == want
        assert len(selected) <= cap
        # planned covariance never inflates a diagonal entry
        assert np.all(np.diag(planned_cov(prior_cov, steps)) <= np.diag(prior_cov) + 1e-12)


def test_each_pick_shrinks_some_diagonal():
    fleet = make_fleet([(0, 1e-3, 2.0), (0, 2e-3, 4.0), (1, 5e-4, 3.0)])
    targets = np.array([1e-6, 1e-6])  # unreachable, loop to cap
    prior = np.diag([0.02, 0.01])
    cov = prior.copy()
    for cap in (1, 2, 3):
        _, steps = sched.plan_selection(prior, targets, (), fleet, cap)
        planned = planned_cov(prior, steps)
        assert np.diag(planned).sum() < np.diag(cov).sum() + 1e-15
        cov = planned
    selected, _ = sched.plan_selection(prior, targets, (), fleet, 3)
    assert len(selected) == 3  # loop ran exactly cap iterations


def test_reachable_targets_met_with_full_fleet():
    rng = np.random.default_rng(77)
    for _ in range(20):
        spec = [(i % 2, float(rng.uniform(1e-4, 5e-3)), float(rng.uniform(1, 20))) for i in range(6)]
        fleet = make_fleet(spec)
        prior_cov = np.diag(rng.uniform(1e-3, 5e-2, 2))
        bounds = np.array([5e-3, 5e-3])
        # oracle: fusing every agent must reach the bounds for this instance
        cov = prior_cov.copy()
        for a in fleet.agents:
            h = np.eye(2)[[a.feature]]
            cov = joseph_update(cov, h, [[a.noise_var]])[1]
        if np.any(np.diag(cov) > bounds):
            continue
        _, steps = sched.plan_selection(prior_cov, bounds, (), fleet, cap=len(fleet.agents))
        planned = planned_cov(prior_cov, steps)
        assert np.all(np.diag(planned) <= bounds)


def test_schedule_deterministic_given_seed():
    fleet = make_fleet([(0, 5e-3, 12.0), (0, 1e-3, 6.0), (1, 8e-4, 9.0), (1, 2e-3, 2.0)])
    targets = np.array([1e-3, 5e-4])
    aol = AolTracker((6, 2), (5, 5))
    params, plant = ChannelParams(), dyn.plant(RunConfig().process_noise_var)
    runs = []
    for _ in range(2):
        belief = est.Belief(np.array([-0.5, 0.01]), np.diag([0.02, 0.01]))
        result, post, trk = sched.run_round(
            select_reverb, belief, 0.3, plant, targets, aol, fleet, params, {}, 3, np.array([-0.49, 0.012]),
            per_call_normals(np.random.default_rng(31)), fuse=sched.fuse_delivered,
        )
        runs.append((result, post.mean, post.cov, trk.ages))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])
    assert runs[0][3] == runs[1][3]


def test_schedule_closes_loops_for_delivered_features():
    fleet = make_fleet([(0, 1e-3, 6.0), (1, 8e-4, 9.0)])
    targets = np.array([1e-4, 1e-4])
    belief = est.Belief(np.array([-0.5, 0.01]), np.diag([0.02, 0.01]))
    aol = AolTracker((6, 6), (5, 5))
    result, post, trk = sched.run_round(
        select_reverb, belief, 0.0, STILL, targets, aol, fleet, ChannelParams(), {}, 2, np.array([-0.49, 0.012]),
        per_call_normals(np.random.default_rng(1)), fuse=sched.fuse_delivered,
    )
    assert set(result.selected) == {0, 1}
    # both features are stale, so the first two picks are their nearest sensors
    assert result.selected[:2] == (fleet.nearest_first[0][0], fleet.nearest_first[1][0])
    assert set(result.delivered) == {0, 1}  # outage at 1e-5 will not trip here
    assert trk.ages == (1, 1)
    assert result.total_prbs >= 2


def test_fuse_delivered_replaced_after_import_sees_every_round(monkeypatch):
    # A round looks the fuse up when it is made, so a wrapper installed
    # before then (as a profiler installs one) counts every call.
    calls = []
    fuse = sched.fuse_delivered

    def counting_fuse(*args):
        calls.append(args)
        return fuse(*args)

    monkeypatch.setattr(sched, "fuse_delivered", counting_fuse)
    loop = schemes.build_loop(RunConfig(), "AoL-REVERB", np.random.default_rng(5))
    for n in range(1, 6):
        loop.step(0.5, np.array([50.0, 1e4]))
        assert len(calls) == n
