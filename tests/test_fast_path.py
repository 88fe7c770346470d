"""The round's fast stages and lazy link memo, each checked against its oracle.

The oracles are the per-sensor and per-link functions (``sensing.observe``,
``channel.uplink_outcome``, ``FusionBatch.from_observations`` + ``fuse``),
the general Joseph update ``estimator._joseph_update``, and loop-written
references of the float expressions.
"""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.optimize import brentq

from reverb import channel as ch
from reverb import cli
from reverb import config
from reverb import estimator as est
from reverb import scheduler as sched
from reverb import schemes
from reverb import sensing
from reverb.errors import InfeasibleError, NumericalError

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def spd_2x2(draw):
    a = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    return a @ a.T + np.diag([draw(positive), draw(positive)])


def selector(k: int, dim: int = 2) -> np.ndarray:
    h = np.zeros((1, dim))
    h[0, k] = 1.0
    return h


def scalar_agent(agent_id: int, k: int, var: float, dist: float = 5.0) -> sensing.SensingAgent:
    return sensing.SensingAgent(agent_id, k, var, distance_m=dist, tx_power_w=0.02)


@settings(max_examples=300, deadline=None)
@given(prior=spd_2x2(), k=st.sampled_from([0, 1]), r=positive)
def test_scalar_posterior_matches_joseph(prior, k, r):
    fast = np.array(est.posterior_cov(prior.tolist(), k, r))
    _, oracle = est._joseph_update(prior, selector(k), np.array([[r]]))
    assert np.max(np.abs(fast - oracle)) <= 1e-12
    assert np.array_equal(fast, fast.T)


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


@settings(max_examples=300, deadline=None)
@given(prior=spd_2x2(), k=st.sampled_from([0, 1]), r=positive)
def test_float_2x2_update_matches_scalar_and_joseph(prior, k, r):
    fast = est.posterior_cov(prior.tolist(), k, r)
    assert np.array(fast).tobytes() == np.array(rank1_joseph(prior.tolist(), k, r)).tobytes()
    _, oracle = est._joseph_update(prior, selector(k), np.array([[r]]))
    assert np.max(np.abs(np.array(fast) - oracle)) <= 1e-12


def test_float_2x2_update_keeps_cross_check():
    with pytest.raises(NumericalError, match="disagree"):
        est.posterior_cov([[1.0, 0.0], [0.0, 1.0]], 0, -1.0 + 1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, k=st.sampled_from([0, 1]), var=positive, s0=unit, s1=unit)
def test_scalar_observe_is_bit_identical_to_cholesky(seed, k, var, s0, s1):
    agent = scalar_agent(0, k, var)
    state = np.array([s0, s1])
    fast_rng, general_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = sensing.observe(agent, state, fast_rng).values
    general = state[k] + np.linalg.cholesky(np.array([[var]])) @ general_rng.standard_normal(1)
    assert fast.shape == general.shape == (1,)
    assert fast.tobytes() == general.tobytes()
    assert fast_rng.bit_generator.state == general_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(specs=st.lists(st.tuples(st.sampled_from([0, 1]), positive), min_size=1, max_size=12))
def test_diag_batch_equals_block_diag(specs):
    agents = [scalar_agent(i, k, var) for i, (k, var) in enumerate(specs)]
    obs = [sensing.Observation(a.agent_id, [0.1]) for a in agents]
    batch = est.FusionBatch.from_observations(agents, obs)
    assert np.array_equal(batch.obs_matrix, np.vstack([selector(a.feature) for a in agents]))
    assert np.array_equal(batch.noise_cov, sla.block_diag(*[[[a.noise_var]] for a in agents]))


def general_plan(prior_cov, targets, violated, fleet, cap):
    """The planner on the general path: candidate lists min-scanned per pick, Joseph updates."""
    available = {a.agent_id for a in fleet.agents}
    cov = np.array(prior_cov, dtype=float)
    selected, serviced = [], []

    def pick(agent):
        nonlocal cov
        selected.append(agent.agent_id)
        available.discard(agent.agent_id)
        cov = est._joseph_update(cov, selector(agent.feature), np.array([[agent.noise_var]]))[1]

    def candidates(k):
        return [fleet.agents[i] for i in fleet.agents_for(k) if i in available]

    for k in sorted(violated):
        if len(selected) >= cap:
            break
        if candidates(k):
            pick(min(candidates(k), key=lambda a: (a.distance_m, a.agent_id)))
            serviced.append(k)
    while len(selected) < cap and np.any(np.diag(cov) > targets.variance_bounds):
        ratios = [
            (np.diag(cov)[k] / targets.variance_bounds[k], -k) for k in (0, 1) if candidates(k)
        ]
        if not ratios:
            break
        k = -max(ratios)[1]
        pick(min(candidates(k), key=lambda a: (a.noise_var, a.agent_id)))
    return selected, serviced, cov


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from([0, 1]), positive, st.floats(min_value=0.5, max_value=20.0)),
        min_size=1,
        max_size=12,
    ),
    prior=spd_2x2(),
    bounds=st.tuples(positive, positive),
    violated=st.sets(st.sampled_from([0, 1])),
    cap=st.integers(min_value=1, max_value=12),
)
def test_plan_selection_same_picks_as_general_path(specs, prior, bounds, violated, cap):
    agents = [scalar_agent(i, k, var, dist) for i, (k, var, dist) in enumerate(specs)]
    fleet = sensing.SensorFleet(agents=tuple(agents))
    targets = sched.UncertaintyTargets(np.array(bounds))
    violated = tuple(sorted(violated))
    fast = sched.plan_selection(prior, targets, violated, fleet, cap)
    general = general_plan(prior, targets, violated, fleet, cap)
    assert fast[:2] == general[:2]
    assert np.max(np.abs(fast[2] - general[2])) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(a=unit, b=unit, d=unit)
def test_closed_form_2x2_check_agrees_with_eigvalsh(a, b, d):
    cov = np.array([[a, b], [b, d]])
    min_eig = np.linalg.eigvalsh(cov).min()
    if abs(min_eig + est.SYMMETRY_TOL) < 1e-12:
        return  # too close to the threshold for either method to decide
    if min_eig < -est.SYMMETRY_TOL:
        with pytest.raises(NumericalError, match="semidefiniteness"):
            est._check_cov(cov)
    else:
        est._check_cov(cov)
    with pytest.raises(NumericalError, match="symmetry"):
        est._check_cov(cov + np.array([[0.0, 1e-9], [0.0, 0.0]]))


# --- lazy link memo ----------------------------------------------------------

# At 30 m maximum distance, seed 1 places agents 2 and 3 where theta <= 1.
FAR = {"fleet": {"max_distance_m": 30}, "qi_cap": 50}


def far_fleet():
    cfg = config.config_from_dict(FAR)
    return cfg, schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(1)).fleet


@pytest.mark.parametrize("scheme", ["CB-Greedy", "EB-Greedy", "AoL-REVERB"])
def test_unreachable_sensor_never_selected_does_not_stop_the_run(tmp_path, scheme):
    cfg_path = tmp_path / "far.yaml"
    cfg_path.write_text("fleet: {max_distance_m: 30}\nqi_cap: 50\n")
    argv = ["run", "--scheme", scheme, "--seed", "1", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert cli.main(argv) == 0


def test_selecting_unreachable_sensor_names_agent_distance_and_theta():
    cfg, fleet = far_fleet()
    far = fleet.agents[2]
    rng = np.random.default_rng(0)
    pattern = rf"agent 2 at {far.distance_m:g} m: link constant theta=0\.79"
    with pytest.raises(InfeasibleError, match=pattern):
        sched.size_and_transmit([0, 2], fleet, cfg.channel, np.zeros(2), rng)
    with pytest.raises(InfeasibleError, match=re.escape(f"agent 3 at {fleet.agents[3].distance_m:g} m")):
        sched.size_and_transmit([3], fleet, cfg.channel, np.zeros(2), rng)


def test_link_memo_hit_equals_fresh_solve():
    cfg, fleet = far_fleet()
    rng = np.random.default_rng(0)
    first, _, _ = sched.size_and_transmit([0, 1], fleet, cfg.channel, np.zeros(2), rng)
    with mock.patch.object(ch, "optimal_bandwidth", side_effect=AssertionError("memo missed")):
        again, _, _ = sched.size_and_transmit([1, 0], fleet, cfg.channel, np.zeros(2), rng)
    assert again == (first[1], first[0])
    for budget in again:
        a = fleet.agents[budget.agent_id]
        assert budget == ch.optimal_bandwidth(cfg.channel, a.tx_power_w, a.distance_m, agent_id=a.agent_id)
    # Another channel configuration is sized on its own.
    longer = dataclasses.replace(cfg.channel, packet_bits=2048.0)
    (wide,), _, _ = sched.size_and_transmit([0], fleet, longer, np.zeros(2), rng)
    a = fleet.agents[0]
    assert wide == ch.optimal_bandwidth(longer, a.tx_power_w, a.distance_m, agent_id=0)
    assert wide.bandwidth_hz > first[0].bandwidth_hz


# --- one draw per round --------------------------------------------------------


def per_link_transmit(selected, fleet, params, state, rng):
    """The oracle: ``observe`` per sensor, then ``uplink_outcome`` per link, on the memo's budgets."""
    observations = [sensing.observe(fleet.agents[i], state, rng) for i in selected]
    outcomes = [ch.uplink_outcome(params, fleet.link_memo[params][i], rng) for i in selected]
    values = np.concatenate([o.values for o in observations]) if observations else np.empty(0)
    return values, [i for i, out in zip(selected, outcomes) if out.delivered]


sensor_specs = st.lists(
    st.tuples(
        st.sampled_from([0, 1]),
        positive,
        st.floats(min_value=0.5, max_value=20.0),   # every link feasible
    ),
    min_size=1,
    max_size=12,
)


def build_fleet(specs):
    agents = (scalar_agent(i, k, var, dist) for i, (k, var, dist) in enumerate(specs))
    return sensing.SensorFleet(tuple(agents))


def coin_flip_budget(params, agent):
    """A link that makes the deadline only when its fading power exceeds 1, about half the time."""
    budget = ch.optimal_bandwidth(params, agent.tx_power_w, agent.distance_m, agent_id=agent.agent_id)

    def slack(w):
        sized = dataclasses.replace(budget, bandwidth_hz=w)
        return ch.uplink_latency(params, sized, 1.0) - params.max_latency_s

    return dataclasses.replace(budget, bandwidth_hz=brentq(slack, 1e-3 * budget.bandwidth_hz, budget.bandwidth_hz))


@settings(max_examples=150, deadline=None)
@given(specs=sensor_specs, seed=seeds, data=st.data(), s0=unit, s1=unit)
def test_batched_transmit_matches_per_link_oracle(specs, seed, data, s0, s1):
    fleet = build_fleet(specs)
    selected = data.draw(st.permutations(range(len(fleet))))
    selected = selected[: data.draw(st.integers(min_value=0, max_value=len(selected)))]
    params, state = ch.ChannelParams(), np.array([s0, s1])
    memo = fleet.link_memo.setdefault(params, {})
    for a in fleet.agents:
        if data.draw(st.booleans(), label=f"coin-flip link {a.agent_id}"):
            memo[a.agent_id] = coin_flip_budget(params, a)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    budgets, values, delivered = sched.size_and_transmit(selected, fleet, params, state, rng)
    want_values, want_delivered = per_link_transmit(selected, fleet, params, state, oracle_rng)
    assert budgets == tuple(fleet.link_memo[params][i] for i in selected)
    assert values.shape == want_values.shape
    assert values.tobytes() == want_values.tobytes()
    assert delivered == want_delivered
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_empty_selection_draws_nothing():
    fleet = build_fleet([(0, 1e-3, 5.0), (1, 2e-3, 5.0)])
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    budgets, values, delivered = sched.size_and_transmit([], fleet, ch.ChannelParams(), np.zeros(2), rng)
    assert budgets == () and values.shape == (0,) and delivered == []
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("starved_first", [False, True])
def test_starved_link_is_not_delivered(starved_first):
    fleet = build_fleet([(0, 1e-3, 5.0), (1, 1e-3, 6.0), (1, 2e-3, 7.0)])
    selected = [1, 2, 0] if starved_first else [2, 1, 0]
    params, state = ch.ChannelParams(), np.array([-0.5, 0.01])
    memo = fleet.link_memo.setdefault(params, {})
    budget = ch.optimal_bandwidth(params, 0.02, 6.0, agent_id=1)
    memo[1] = dataclasses.replace(budget, bandwidth_hz=1e-3 * budget.bandwidth_hz)
    rng, oracle_rng = np.random.default_rng(2), np.random.default_rng(2)
    _, values, delivered = sched.size_and_transmit(selected, fleet, params, state, rng)
    want_values, want_delivered = per_link_transmit(selected, fleet, params, state, oracle_rng)
    assert delivered == want_delivered == [2, 0]
    assert values.tobytes() == want_values.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


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


@settings(max_examples=150, deadline=None)
@given(specs=sensor_specs, seed=seeds, data=st.data(), prior=spd_2x2())
def test_fuse_delivered_matches_observation_batch(specs, seed, data, prior):
    fleet = build_fleet(specs)
    selected = data.draw(st.permutations(range(len(fleet))))
    selected = selected[: data.draw(st.integers(min_value=1, max_value=len(selected)))]
    delivered = [i for i in selected if data.draw(st.booleans())]
    belief = est.Belief(np.array([-0.5, 0.01]), prior)
    values = sensing.observe_many(fleet, selected, np.array([-0.49, 0.012]), np.random.default_rng(seed))
    post = sched.fuse_delivered(belief, selected, delivered, values, fleet)
    if not delivered:
        assert np.array_equal(post.mean, belief.mean) and np.array_equal(post.cov, belief.cov)
        return
    readings = [
        (fleet.agents[i].feature, fleet.agents[i].noise_var, values[selected.index(i)]) for i in delivered
    ]
    mean, cov = sequential_fusion(belief.mean.tolist(), prior.tolist(), readings)
    assert post.mean.tobytes() == np.array(mean).tobytes()
    assert post.cov.tobytes() == np.array(cov).tobytes()
    agents = [fleet.agents[i] for i in delivered]
    observations = [sensing.Observation(i, values[selected.index(i)]) for i in delivered]
    batch = est.fuse(belief, est.FusionBatch.from_observations(agents, observations))
    assert np.max(np.abs(post.mean - batch.mean)) <= 1e-12
    assert np.max(np.abs(post.cov - batch.cov)) <= 1e-12


def test_fused_covariance_is_the_planned_one_when_every_pick_arrives():
    cfg = config.config_from_dict({"cap": 30, "fleet": {"n_agents": 60}})
    fleet = schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(3)).fleet
    prior = est.Belief(np.array([-0.5, 0.01]), np.diag([2e-2, 1e-2]))
    targets = sched.UncertaintyTargets(np.array([1e-4, 2e-5]))
    selected, _, planned = sched.plan_selection(prior.cov, targets, (0, 1), fleet, cfg.cap)
    assert len(selected) > 2
    values = sensing.observe_many(fleet, selected, np.array([-0.49, 0.012]), np.random.default_rng(0))
    post = sched.fuse_delivered(prior, selected, selected, values, fleet)
    assert post.cov.tobytes() == planned.tobytes()


def test_rank1_update_retries_with_jitter_then_fails():
    gain, cov = est.rank1_update([[0.0, 0.0], [0.0, 1.0]], 0, 0.0)
    assert gain == (0.0, 0.0) and cov == [[0.0, 0.0], [0.0, 1.0]]
    with pytest.raises(NumericalError, match="singular"):
        est.rank1_update([[-1.0, 0.0], [0.0, 1.0]], 0, 0.5)


@pytest.mark.parametrize("bad", ["prior", "variance"])
def test_fuse_readings_rejects_non_finite(bad):
    cov = np.eye(2)
    r = 1e-3
    if bad == "prior":
        cov[0, 1] = cov[1, 0] = np.inf
    else:
        r = np.nan
    prior = est.Belief.__new__(est.Belief)
    prior.mean, prior.cov, prior.qi = np.zeros(2), cov, 0
    with pytest.raises(NumericalError, match="not finite"):
        est.fuse_readings(prior, [(1, r, 0.1)])


spd_n = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(unit, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(positive, min_size=n, max_size=n),
        st.lists(st.lists(unit, min_size=2, max_size=2), min_size=n, max_size=n),
    )
)


@settings(max_examples=200, deadline=None)
@given(spec=spd_n)
def test_innovation_solve_is_bit_equal_to_scipy(spec):
    b, diag, rhs = (np.array(x) for x in spec)
    s_mat = b @ b.T + np.diag(diag)
    want = sla.cho_solve(sla.cho_factor(s_mat, lower=True), rhs)
    assert est._innovation_solve(s_mat, rhs).tobytes() == want.tobytes()


def test_innovation_solve_retries_with_jitter_then_fails():
    rhs = np.array([[1.0, 0.0], [0.0, 1.0]])
    retried = sla.cho_solve(sla.cho_factor(1e-12 * np.eye(2), lower=True), rhs)
    assert np.array_equal(est._innovation_solve(np.zeros((2, 2)), rhs), retried)
    with pytest.raises(NumericalError, match="singular"):
        est._innovation_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), rhs)


@pytest.mark.parametrize("bad", ["s", "rhs"])
def test_innovation_solve_rejects_non_finite(bad):
    s_mat, rhs = np.eye(2), np.ones((2, 2))
    (s_mat if bad == "s" else rhs)[0, 1] = np.nan
    with pytest.raises(NumericalError, match="not finite"):
        est._innovation_solve(s_mat, rhs)


@settings(max_examples=100, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from([0, 1]), st.sampled_from([1e-3, 2e-3]), st.sampled_from([2.0, 5.0, 9.0])),
        min_size=1,
        max_size=15,
    ),
    cap=st.integers(min_value=1, max_value=20),
)
def test_greedy_picks_equal_a_fresh_sort(specs, cap):
    fleet = build_fleet(specs)
    by_distance = sorted(fleet.agents, key=lambda a: (a.distance_m, a.agent_id))
    by_noise = sorted(fleet.agents, key=lambda a: (a.noise_var, a.agent_id))
    assert schemes.select_nearest(None, None, None, fleet, cap) == ([a.agent_id for a in by_distance[:cap]], [])
    assert schemes.select_quietest(None, None, None, fleet, cap) == ([a.agent_id for a in by_noise[:cap]], [])
