import numpy as np

from reverb import estimator as est
from reverb import scheduler as sched
from reverb.aol import AolTracker
from reverb.channel import ChannelParams
from reverb.schemes import select_reverb
from reverb.sensing import SensingAgent, SensorFleet


def make_fleet(spec):
    """spec: iterable of (feature, noise_var, distance) tuples, ids in order."""
    agents = [
        SensingAgent(i, feature, var, distance_m=dist, tx_power_w=0.02)
        for i, (feature, var, dist) in enumerate(spec)
    ]
    return SensorFleet(agents=tuple(agents))


def test_compute_targets_table_values():
    t = sched.compute_targets([0.01, 0.002], [50.0, 1000.0])
    assert np.allclose(t.variance_bounds, [0.01, 0.001])


def test_compute_targets_zero_request_is_vacuous():
    t = sched.compute_targets([0.01, 0.002], [0.0, 0.0])
    assert np.allclose(t.variance_bounds, [0.01, 0.002])


def test_compute_targets_elementwise_min():
    t = sched.compute_targets([0.01, 0.002], [200.0, 200.0])
    assert np.allclose(t.variance_bounds, [0.005, 0.002])


def plan_aol_only(violated, fleet, cap=3):
    """Plan with targets that already hold, so only stale features draw picks."""
    targets = sched.UncertaintyTargets(np.array([1.0, 1.0]))
    selected, serviced, _ = sched.plan_selection(np.diag([1e-4, 1e-4]), targets, violated, fleet, cap)
    return selected, serviced


def test_service_aol_picks_nearest():
    fleet = make_fleet([(0, 1e-3, 12.0), (0, 5e-3, 5.0), (1, 1e-3, 3.0)])
    assert plan_aol_only((0,), fleet) == ([1], [0])


def test_service_aol_empty_and_disjoint():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 9.0)])
    assert plan_aol_only((), fleet) == ([], [])
    assert plan_aol_only((0, 1), fleet) == ([0, 1], [0, 1])


def test_select_feature_ratio_argmax():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    k = sched.select_feature([0.02, 0.001], [0.01, 0.002], fleet, {0, 1})
    assert k == 0  # ratios 2.0 vs 0.5


def test_select_feature_skips_uncovered():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    # the max-ratio feature has no available sensor left
    k = sched.select_feature([0.02, 0.001], [0.01, 0.002], fleet, {1})
    assert k == 1


def test_select_feature_tie_goes_low():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    k = sched.select_feature([0.02, 0.02], [0.01, 0.01], fleet, {0, 1})
    assert k == 0


def test_blind_when_targets_already_met():
    fleet = make_fleet([(0, 1e-3, 2.0), (1, 1e-3, 3.0)])
    targets = sched.UncertaintyTargets(np.array([0.01, 0.002]))
    prior = est.Belief(np.zeros(2), np.diag([1e-4, 1e-4]))
    aol = AolTracker((1, 1), (5, 5))
    result, post, aol2 = sched.run_round(
        select_reverb, prior, targets, aol, fleet, ChannelParams(), 3, np.zeros(2),
        np.random.default_rng(0),
    )
    assert result.blind and result.selected == ()
    assert np.array_equal(post.cov, prior.cov)
    assert np.array_equal(post.mean, prior.mean)
    assert aol2.ages == aol.ages


def test_single_violation_picks_min_noise_agent():
    fleet = make_fleet([(0, 8e-3, 2.0), (0, 1e-3, 19.0), (1, 1e-3, 3.0)])
    targets = sched.UncertaintyTargets(np.array([0.01, 0.002]))
    selected, serviced, _ = sched.plan_selection(
        np.diag([0.05, 1e-4]), targets, (), fleet, cap=1
    )
    assert selected == [1]  # lowest measurement noise, not nearest
    assert serviced == []


def test_aol_service_joins_even_if_targets_hold():
    fleet = make_fleet([(0, 8e-3, 2.0), (0, 1e-3, 19.0), (1, 1e-3, 3.0)])
    targets = sched.UncertaintyTargets(np.array([0.01, 0.002]))
    selected, serviced, _ = sched.plan_selection(
        np.diag([1e-4, 1e-4]), targets, (0,), fleet, cap=3
    )
    assert selected == [0]  # nearest position sensor services the stale loop
    assert serviced == [0]


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
        targets = sched.UncertaintyTargets(bounds)
        selected, _, planned_cov = sched.plan_selection(
            prior_cov, targets, tracker.violated(), fleet, cap
        )
        want = oracle_plan(prior_cov, bounds, tracker.violated(), agents, cap)
        assert selected == want
        assert len(selected) <= cap
        # planned covariance never inflates a diagonal entry
        assert np.all(np.diag(planned_cov) <= np.diag(prior_cov) + 1e-12)


def test_each_pick_shrinks_some_diagonal():
    fleet = make_fleet([(0, 1e-3, 2.0), (0, 2e-3, 4.0), (1, 5e-4, 3.0)])
    targets = sched.UncertaintyTargets(np.array([1e-6, 1e-6]))  # unreachable, loop to cap
    prior = np.diag([0.02, 0.01])
    cov = prior.copy()
    for cap in (1, 2, 3):
        _, _, planned = sched.plan_selection(prior, targets, (), fleet, cap)
        assert np.diag(planned).sum() < np.diag(cov).sum() + 1e-15
        cov = planned
    selected, _, _ = sched.plan_selection(prior, targets, (), fleet, 3)
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
            cov = est._joseph_update(cov, h, np.array([[a.noise_var]]))[1]
        if np.any(np.diag(cov) > bounds):
            continue
        targets = sched.UncertaintyTargets(bounds)
        _, _, planned = sched.plan_selection(prior_cov, targets, (), fleet, cap=len(fleet))
        assert np.all(np.diag(planned) <= bounds)


def test_schedule_deterministic_given_seed():
    fleet = make_fleet([(0, 5e-3, 12.0), (0, 1e-3, 6.0), (1, 8e-4, 9.0), (1, 2e-3, 2.0)])
    targets = sched.UncertaintyTargets(np.array([1e-3, 5e-4]))
    prior = est.Belief(np.array([-0.5, 0.01]), np.diag([0.02, 0.01]))
    aol = AolTracker((6, 2), (5, 5))
    params = ChannelParams()
    runs = []
    for _ in range(2):
        result, post, trk = sched.run_round(
            select_reverb, prior.copy(), targets, aol, fleet, params, 3, np.array([-0.49, 0.012]),
            np.random.default_rng(31),
        )
        runs.append((result, post.mean.copy(), post.cov.copy(), trk.ages))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])
    assert runs[0][3] == runs[1][3]


def test_schedule_closes_loops_for_delivered_features():
    fleet = make_fleet([(0, 1e-3, 6.0), (1, 8e-4, 9.0)])
    targets = sched.UncertaintyTargets(np.array([1e-4, 1e-4]))
    prior = est.Belief(np.array([-0.5, 0.01]), np.diag([0.02, 0.01]))
    aol = AolTracker((6, 6), (5, 5))
    result, post, trk = sched.run_round(
        select_reverb, prior, targets, aol, fleet, ChannelParams(), 2, np.array([-0.49, 0.012]),
        np.random.default_rng(1),
    )
    assert set(result.selected) == {0, 1}
    assert result.aol_serviced == (0, 1)
    assert set(result.delivered) == {0, 1}  # outage at 1e-5 will not trip here
    assert trk.ages == (1, 1)
    assert result.total_prbs >= 2
