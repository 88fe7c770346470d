"""The round's fast stages and lazy link table, each checked against its oracle.

The oracles are the per-sensor reading ``oracles.observe_one``, the per-link
``channel.uplink_outcome``, ``FusionBatch.from_observations``, the general
batch Joseph update ``oracles.joseph_update``, the loop-written
references of the float expressions (``oracles.rank1_joseph`` and
``oracles.sequential_fusion``) and Traditional's list-of-lists fuse
(``oracles.fuse_memoryless_lists``).
"""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.optimize import brentq

from reverb import channel as ch
from reverb import cli
from reverb import config
from reverb import estimator as est
from reverb import recordio
from reverb import scheduler as sched
from reverb import schemes
from reverb import sensing
from reverb.aol import AolTracker
from reverb.errors import InfeasibleError, NumericalError

from oracles import (
    STILL,
    fuse_memoryless_lists,
    joseph_update,
    observe_one,
    per_call_normals,
    plan_picks,
    rank1_joseph,
    rank1_update_nested,
    sequential_fusion,
)

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


def scalar_agent(k: int, var: float, dist: float = 5.0) -> sensing.SensingAgent:
    return sensing.SensingAgent(k, var, distance_m=dist, tx_power_w=0.02)


@settings(max_examples=300, deadline=None)
@given(prior=spd_2x2(), k=st.sampled_from([0, 1]), r=positive)
def test_float_2x2_update_matches_scalar_and_joseph(prior, k, r):
    fast = np.array(est.posterior_cov(prior.tolist(), k, r))
    assert fast.tobytes() == np.array(rank1_joseph(prior.tolist(), k, r)).tobytes()
    _, oracle = joseph_update(prior, selector(k), [[r]])
    assert np.max(np.abs(fast - oracle)) <= 1e-12
    assert np.array_equal(fast, fast.T)


def test_float_2x2_update_keeps_cross_check():
    with pytest.raises(NumericalError, match="disagree"):
        est.posterior_cov([[1.0, 0.0], [0.0, 1.0]], 0, -1.0 + 1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, k=st.sampled_from([0, 1]), var=positive, s0=unit, s1=unit)
def test_scalar_observe_is_bit_identical_to_cholesky(seed, k, var, s0, s1):
    agent = scalar_agent(k, var)
    state = np.array([s0, s1])
    fast_rng, general_rng, batch_rng = (np.random.default_rng(seed) for _ in range(3))
    fast = np.array([observe_one(agent, state, fast_rng)])
    general = state[k] + np.linalg.cholesky(np.array([[var]])) @ general_rng.standard_normal(1)
    batched = np.array(sensing.observe(sensing.SensorFleet((agent,)), [0], state, per_call_normals(batch_rng)))
    assert fast.shape == general.shape == batched.shape == (1,)
    assert fast.tobytes() == general.tobytes() == batched.tobytes()
    assert fast_rng.bit_generator.state == general_rng.bit_generator.state == batch_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(specs=st.lists(st.tuples(st.sampled_from([0, 1]), positive), min_size=1, max_size=12))
def test_diag_batch_equals_block_diag(specs):
    agents = [scalar_agent(k, var) for k, var in specs]
    batch = est.FusionBatch.from_observations(agents, [0.1] * len(agents))
    assert np.array_equal(batch.obs_matrix, np.vstack([selector(a.feature) for a in agents]))
    assert np.array_equal(batch.noise_cov, sla.block_diag(*[[[a.noise_var]] for a in agents]))


def planned_cov(prior_cov, steps):
    """The planned covariance: the last rank-1 step's, the prior's when nothing was picked."""
    return np.array(steps[-1][2:]).reshape(2, 2) if steps else np.asarray(prior_cov, dtype=float)


def general_plan(prior_cov, targets, violated, fleet, cap):
    """The planner on the general path: the batch Joseph update after every pick."""

    def update(cov, k, r):
        return joseph_update(cov, selector(k), [[r]])[1]

    return plan_picks(prior_cov, targets.tolist(), violated, fleet.agents, cap, update)


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
    fleet = build_fleet(specs)
    targets = np.array(bounds)
    violated = tuple(sorted(violated))
    picks, steps = sched.plan_selection(prior, targets, violated, fleet, cap)
    selected, serviced, cov = general_plan(prior, targets, violated, fleet, cap)
    assert picks == selected
    assert [fleet.features[i] for i in picks[: len(serviced)]] == serviced
    assert np.max(np.abs(planned_cov(prior, steps) - cov)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(a=unit, b=unit, d=unit)
def test_closed_form_2x2_check_agrees_with_eigvalsh(a, b, d):
    cov = np.array([[a, b], [b, d]])
    min_eig = np.linalg.eigvalsh(cov).min()
    if abs(min_eig + est.SYMMETRY_TOL) < 1e-12:
        return  # too close to the threshold for either method to decide
    if min_eig < -est.SYMMETRY_TOL:
        with pytest.raises(NumericalError, match="semidefiniteness"):
            est.Belief((0.0, 0.0), cov)
    else:
        est.Belief((0.0, 0.0), cov)
    with pytest.raises(NumericalError, match="symmetry"):
        est.Belief((0.0, 0.0), cov + np.array([[0.0, 1e-9], [0.0, 0.0]]))


# --- lazy link table ---------------------------------------------------------

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
        sched.size_and_transmit([0, 2], fleet, cfg.channel, {}, np.zeros(2), per_call_normals(rng))
    with pytest.raises(InfeasibleError, match=re.escape(f"agent 3 at {fleet.agents[3].distance_m:g} m")):
        sched.size_and_transmit([3], fleet, cfg.channel, {}, np.zeros(2), per_call_normals(rng))


def test_link_memo_hit_equals_fresh_solve():
    cfg, fleet = far_fleet()
    rng = np.random.default_rng(0)
    links = {}
    sched.size_and_transmit([0, 1], fleet, cfg.channel, links, np.zeros(2), per_call_normals(rng))
    first = links[0][0], links[1][0]
    with mock.patch.object(ch, "optimal_bandwidth", side_effect=AssertionError("link table missed")):
        normals = per_call_normals(rng)
        result, closes, _, _ = sched.size_and_transmit([1, 0], fleet, cfg.channel, links, np.zeros(2), normals)
    # A new order of sized sensors is a new selection, built from the sensors' entries.
    ids, prbs = result.selected, result.total_prbs
    assert ids == (1, 0) and prbs == first[1].prbs + first[0].prbs
    picked = {fleet.features[1], fleet.features[0]}
    assert links[ids] == ((ids, ids, prbs), [links[1][1], links[0][1]], (0 in picked, 1 in picked))
    assert links[ids][0] is result and result.delivered is ids and links[ids][2] is closes
    for i in (1, 0):
        a = fleet.agents[i]
        assert links[i][0] == ch.optimal_bandwidth(cfg.channel, a.tx_power_w, a.distance_m, agent_id=i)
    # Another channel configuration is sized in its own table.
    longer = dataclasses.replace(cfg.channel, packet_bits=2048.0)
    wide_links = {}
    sched.size_and_transmit([0], fleet, longer, wide_links, np.zeros(2), per_call_normals(rng))
    wide = wide_links[0][0]
    a = fleet.agents[0]
    assert wide == ch.optimal_bandwidth(longer, a.tx_power_w, a.distance_m, agent_id=0)
    assert wide.bandwidth_hz > first[0].bandwidth_hz


# The table's selection entries. A hit hands the round the entry's fully
# delivered result, the sensors' own ``link_terms`` objects in pick order and
# the closing flags: the values a miss computes from the same sensor entries,
# so the deadline tests, the readings, the fusion, the ages and the stream's
# position do not depend on whether the selection was seen before, and every
# bit of the round is kept.
PICKS = [8, 1, 6, 9]   # reachable sensors of ``far_fleet``, both features


def coin_flip_links(params, fleet, ids):
    """A table holding only sensor entries, each link a coin flip (``coin_flip_budget``)."""
    return {i: link_entry(params, coin_flip_budget(params, fleet.agents[i])) for i in ids}


def traced_round(links, fleet, params, seed):
    """``run_round`` of ``PICKS`` (a new list each round) on ``links``.

    Returns the result, the readings, the posterior, the ages and the stream state.
    """
    readings = []

    def fuse(prior, selected, delivered, values, fleet, steps):
        readings.append(values)
        return sched.fuse_delivered(prior, selected, delivered, values, fleet, steps)

    rng = np.random.default_rng(seed)
    belief = est.Belief((-0.5, 0.01), ((2e-2, 1e-3), (1e-3, 1e-2)))
    result, post, aol = sched.run_round(
        lambda *_: (list(PICKS), ()), fuse, belief, 0.0, STILL, (1e-4, 2e-5), AolTracker((6, 6), (5, 5)), fleet,
        params, links, len(PICKS), (-0.49, 0.012), per_call_normals(rng),
    )
    posterior = np.array([post.mean, *post.cov]).tobytes()
    return result, np.array(readings).tobytes(), posterior, aol.ages, rng.bit_generator.state


def test_repeated_selection_equals_a_round_on_an_empty_table():
    cfg, fleet = far_fleet()
    warm = coin_flip_links(cfg.channel, fleet, PICKS)
    first = traced_round(warm, fleet, cfg.channel, 0)[0]
    entry = warm[tuple(PICKS)]
    patterns = set()
    for seed in range(1, 25):
        hit = traced_round(warm, fleet, cfg.channel, seed)
        fresh = traced_round(coin_flip_links(cfg.channel, fleet, PICKS), fleet, cfg.channel, seed)
        assert hit == fresh
        result, ages = hit[0], hit[3]
        full = entry[0]
        assert result.selected is full.selected and result.total_prbs == full.total_prbs == first.total_prbs
        # Only a fully delivered round hands back the entry's result, and it closes from the entry's flags.
        assert (result is full) == (result.delivered is result.selected) == (result.delivered == result.selected)
        arrived = {fleet.features[i] for i in result.delivered}
        assert ages == tuple(1 if k in arrived else 7 for k in (0, 1))
        patterns.add(result.delivered)
    # Other outage patterns than the first round's, a full delivery and a partial one among them.
    assert len(patterns - {first.delivered}) > 1 and tuple(PICKS) in patterns and len(patterns) > 2
    assert [k for k in warm if type(k) is tuple] == [tuple(PICKS)]


def test_a_tuple_selection_is_the_table_key_and_a_full_round_its_deliveries():
    cfg, fleet = far_fleet()
    picks, links = tuple(PICKS), {}
    result, _, _, delivered = sched.size_and_transmit(
        picks, fleet, cfg.channel, links, (-0.49, 0.012), per_call_normals(np.random.default_rng(4))
    )
    assert [k for k in links if type(k) is tuple][0] is picks
    assert result is links[picks][0] and result.selected is picks and delivered is picks


def test_table_hit_neither_sizes_nor_splits_a_link():
    cfg, fleet = far_fleet()
    links = {}
    state = (-0.49, 0.012)
    first = sched.size_and_transmit(list(PICKS), fleet, cfg.channel, links, state, per_call_normals(np.random.default_rng(4)))
    table = dict(links)
    with (
        mock.patch.object(ch, "optimal_bandwidth", side_effect=AssertionError("sized again")),
        mock.patch.object(ch, "link_terms", side_effect=AssertionError("terms formed again")),
    ):
        again = sched.size_and_transmit(list(PICKS), fleet, cfg.channel, links, state, per_call_normals(np.random.default_rng(4)))
    assert again == first and again[0] is first[0] is links[tuple(PICKS)][0]
    assert links == table


# No accuracy request, so AoL-REVERB transmits only when a feature's age runs out.
LOOSE = {"scripted_accuracy": [0.0, 0.0]}


@pytest.mark.parametrize(
    "overrides, scheme",
    [(LOOSE, s) for s in ("AoL-REVERB", "CB-Greedy", "EB-Greedy", "Traditional")] + [({}, "AoL-REVERB")],
    ids=["loose-AoL-REVERB", "loose-CB-Greedy", "loose-EB-Greedy", "loose-Traditional", "headline-AoL-REVERB"],
)
def test_selection_keys_are_the_episode_distinct_selections(overrides, scheme):
    cfg = config.config_from_dict(overrides)
    build, loops = schemes.build_loop, []

    def build_loop(*args):
        loops.append(build(*args))
        return loops[-1]

    with mock.patch.object(schemes, "build_loop", build_loop):
        record = schemes.run_episode(cfg, scheme, schemes.make_policy(cfg), 4)
    (loop,) = loops
    column = [row[recordio.EPISODE_COLUMNS.index("selected")] for row in record.rows]
    keys = [k for k in loop.links if type(k) is tuple]
    assert set(keys) == {s for s in column if s} and len(keys) == len(set(keys))
    # Every row holds its selection's one tuple, and blind rounds add no key.
    assert all(s is loop.links[s][0].selected for s in column if s)
    assert () not in loop.links and any(column)
    assert (() in column) == (overrides == LOOSE and scheme == "AoL-REVERB")


@pytest.mark.parametrize("scheme", ["CB-Greedy", "AoL-REVERB"])
def test_repeated_fully_delivered_selection_is_the_entry_result(scheme):
    """A fully delivered round hands back its selection entry's ``ScheduleResult``, the same object every time."""
    cfg = config.config_from_dict({"qi_cap": 60})
    loop = schemes.build_loop(cfg, scheme, np.random.default_rng(2))
    policy = schemes.make_policy(cfg)
    belief, seen, repeats = loop.belief, set(), 0
    for _ in range(cfg.qi_cap):
        action = policy(belief.mean)
        schedule = loop.step(action.force, action.accuracy).schedule
        belief = loop.belief
        if schedule.selected and schedule.delivered == schedule.selected:
            assert schedule is loop.links[schedule.selected][0]
            repeats += schedule.selected in seen
            seen.add(schedule.selected)
    assert repeats > 10


def test_perfect_keeps_its_tracker_at_one_one():
    """Perfect never ticks: its first step closes both features, and from step 2 on the tracker is the same object."""
    cfg = config.RunConfig()
    loop = schemes.build_loop(cfg, "Perfect", np.random.default_rng(3))
    assert loop.aol.ages == (0, 0)
    loop.step(1.0, cfg.scripted_accuracy)
    first = loop.aol
    for _ in range(20):
        res = loop.step(-1.0, cfg.scripted_accuracy)
        assert loop.aol is first and first.ages == (1, 1) and res.schedule is sched.BLIND


# --- one draw per round --------------------------------------------------------


def per_link_transmit(selected, fleet, params, links, state, rng):
    """The oracle: ``observe_one`` per sensor, then ``uplink_outcome`` per link, on the link table's budgets."""
    values = np.array([observe_one(fleet.agents[i], state, rng) for i in selected])
    outcomes = [ch.uplink_outcome(params, links[i][0], rng) for i in selected]
    return values, [i for i, out in zip(selected, outcomes) if out.delivered]


def link_entry(params, budget):
    """A link table entry as the round keeps it: the budget and its ``channel.link_terms``."""
    return budget, ch.link_terms(params, budget)


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
    return sensing.SensorFleet(tuple(scalar_agent(k, var, dist) for k, var, dist in specs))


def coin_flip_budget(params, agent):
    """A link that makes the deadline only when its fading power exceeds 1, about half the time."""
    budget = ch.optimal_bandwidth(params, agent.tx_power_w, agent.distance_m)

    def slack(w):
        sized = budget._replace(bandwidth_hz=w)
        return ch.uplink_latency(params, sized, 1.0) - params.max_latency_s

    return budget._replace(bandwidth_hz=brentq(slack, 1e-3 * budget.bandwidth_hz, budget.bandwidth_hz))


@settings(max_examples=150, deadline=None)
@given(specs=sensor_specs, seed=seeds, data=st.data(), s0=unit, s1=unit)
def test_batched_transmit_matches_per_link_oracle(specs, seed, data, s0, s1):
    fleet = build_fleet(specs)
    selected = data.draw(st.permutations(range(len(fleet.agents))))
    selected = selected[: data.draw(st.integers(min_value=0, max_value=len(selected)))]
    params, state = ch.ChannelParams(), np.array([s0, s1])
    links = {}
    for i, a in enumerate(fleet.agents):
        if data.draw(st.booleans(), label=f"coin-flip link {i}"):
            links[i] = link_entry(params, coin_flip_budget(params, a))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result, closes, values, delivered = sched.size_and_transmit(
        selected, fleet, params, links, state, per_call_normals(rng)
    )
    want_values, want_delivered = per_link_transmit(selected, fleet, params, links, state, oracle_rng)
    assert result.selected == tuple(selected) and result.total_prbs == sum(links[i][0].prbs for i in selected)
    assert result.delivered == tuple(want_delivered)
    arrived = {fleet.features[i] for i in want_delivered}
    assert closes == (0 in arrived, 1 in arrived)
    assert type(values) is list and all(type(v) is float for v in values)
    assert np.array(values).shape == want_values.shape
    assert np.array(values).tobytes() == want_values.tobytes()
    assert list(delivered) == want_delivered
    # A fully delivered round hands on the selection's key as its deliveries.
    if selected and len(want_delivered) == len(selected):
        assert delivered is result.delivered is result.selected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class Replay:
    """A generator stand-in whose scalar ``standard_normal()`` calls return given numbers, in order."""

    def __init__(self, normals):
        self.normals = iter(normals)

    def standard_normal(self, shape=None):
        assert shape in (None, ())
        return np.float64(next(self.normals))


@settings(max_examples=150, deadline=None)
@given(specs=sensor_specs, seed=seeds, data=st.data())
def test_memoised_deadline_test_equals_uplink_latency(specs, seed, data):
    """``meets_deadline`` on ``link_terms`` and two normals per link is ``uplink_outcome``'s delivery."""
    params = ch.ChannelParams(
        outage_target=data.draw(st.sampled_from([1e-5, 0.2])),
        rician_k=data.draw(st.sampled_from([10.0, 12.5, 250.0])),
    )
    budgets = []
    for i, a in enumerate(build_fleet(specs).agents):
        budget = ch.optimal_bandwidth(params, a.tx_power_w, a.distance_m, agent_id=i)
        scale = data.draw(st.sampled_from(["sized", "coin flip", "starved"]), label=f"link {i}")
        if scale == "coin flip":
            budget = coin_flip_budget(params, a)
        elif scale == "starved":
            budget = budget._replace(bandwidth_hz=1e-3 * budget.bandwidth_hz)
        budgets.append(budget)
    terms = [ch.link_terms(params, b) for b in budgets]
    # Drawn normals: the per-link oracle draws the same numbers from the same seed.
    normals = np.random.default_rng(seed).standard_normal(2 * len(budgets)).tolist()
    rng = np.random.default_rng(seed)
    assert ch.meets_deadline(params, terms, normals) == [ch.uplink_outcome(params, b, rng).delivered for b in budgets]
    # A link with no signal at all: its real part cancels the line of sight, so the rate is zero.
    los, sigma = ch.rician_terms(params.rician_k)
    dark = data.draw(st.integers(0, len(budgets) - 1))
    normals[2 * dark: 2 * dark + 2] = [-los / sigma, 0.0]
    replay = Replay(normals)
    outcomes = [ch.uplink_outcome(params, b, replay) for b in budgets]
    assert outcomes[dark].latency_s == math.inf and not outcomes[dark].delivered
    assert ch.meets_deadline(params, terms, normals) == [out.delivered for out in outcomes]


def test_empty_selection_draws_nothing():
    fleet = build_fleet([(0, 1e-3, 5.0), (1, 2e-3, 5.0)])
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    normals = mock.Mock(side_effect=per_call_normals(rng))
    links = {}
    params = ch.ChannelParams()
    result, closes, values, delivered = sched.size_and_transmit([], fleet, params, links, np.zeros(2), normals)
    assert result is sched.BLIND == ((), (), 0) and closes == (False, False)
    assert np.array(values).shape == (0,) and delivered == []
    assert normals.call_count == 0 and rng.bit_generator.state == before and links == {}


@pytest.mark.parametrize("starved_first", [False, True])
def test_starved_link_is_not_delivered(starved_first):
    fleet = build_fleet([(0, 1e-3, 5.0), (1, 1e-3, 6.0), (1, 2e-3, 7.0)])
    selected = [1, 2, 0] if starved_first else [2, 1, 0]
    params, state = ch.ChannelParams(), np.array([-0.5, 0.01])
    budget = ch.optimal_bandwidth(params, 0.02, 6.0, agent_id=1)
    links = {1: link_entry(params, budget._replace(bandwidth_hz=1e-3 * budget.bandwidth_hz))}
    rng, oracle_rng = np.random.default_rng(2), np.random.default_rng(2)
    _, _, values, delivered = sched.size_and_transmit(selected, fleet, params, links, state, per_call_normals(rng))
    want_values, want_delivered = per_link_transmit(selected, fleet, params, links, state, oracle_rng)
    assert delivered == want_delivered == [2, 0]
    assert np.array(values).tobytes() == want_values.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(specs=sensor_specs, seed=seeds, data=st.data(), prior=spd_2x2())
def test_fuse_delivered_matches_observation_batch(specs, seed, data, prior):
    fleet = build_fleet(specs)
    selected = data.draw(st.permutations(range(len(fleet.agents))))
    selected = selected[: data.draw(st.integers(min_value=1, max_value=len(selected)))]
    delivered = [i for i in selected if data.draw(st.booleans())]
    belief = est.Belief(np.array([-0.5, 0.01]), prior)
    values = sensing.observe(fleet, selected, np.array([-0.49, 0.012]), per_call_normals(np.random.default_rng(seed)))
    post = sched.fuse_delivered(belief, selected, delivered, values, fleet)
    if not delivered:
        assert post == belief and post is not belief
        return
    readings = [
        (fleet.agents[i].feature, fleet.agents[i].noise_var, values[selected.index(i)]) for i in delivered
    ]
    mean, cov = sequential_fusion(list(belief.mean), prior.tolist(), readings)
    assert np.array(post.mean).tobytes() == np.array(mean).tobytes()
    assert np.array(post.cov).tobytes() == np.array(cov).tobytes()
    agents = [fleet.agents[i] for i in delivered]
    batch = est.FusionBatch.from_observations(agents, [values[selected.index(i)] for i in delivered])
    gain, batch_cov = joseph_update(prior, batch.obs_matrix, batch.noise_cov)
    prior_mean = np.array(belief.mean)
    batch_mean = prior_mean + gain @ (batch.values - batch.obs_matrix @ prior_mean)
    assert np.max(np.abs(post.mean - batch_mean)) <= 1e-12
    assert np.max(np.abs(post.cov - batch_cov)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(specs=sensor_specs, data=st.data(), prior=spd_2x2(), m0=unit, m1=unit)
def test_memoryless_fuse_matches_the_list_oracle(specs, data, prior, m0, m1):
    """Traditional's fuse on the fleet's tuples keeps the bits of the per-agent, list-of-lists form."""
    fleet = build_fleet(specs)
    selected = data.draw(st.permutations(range(len(fleet.agents))))
    selected = selected[: data.draw(st.integers(min_value=0, max_value=len(selected)))]
    delivered = [i for i in selected if data.draw(st.booleans())]
    values = [data.draw(unit) for _ in selected]
    belief = est.Belief((m0, m1), prior.tolist())
    got = schemes.fuse_memoryless(belief, selected, delivered, values, fleet, ())
    want = fuse_memoryless_lists(belief, selected, delivered, values, fleet, ())
    assert got is not belief
    assert [x.hex() for x in got.mean] == [x.hex() for x in want.mean]
    assert [x.hex() for row in got.cov for x in row] == [x.hex() for row in want.cov for x in row]


def test_fused_covariance_is_the_planned_one_when_every_pick_arrives():
    cfg = config.config_from_dict({"cap": 30, "fleet": {"n_agents": 60}})
    fleet = schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(3)).fleet
    prior = est.Belief(np.array([-0.5, 0.01]), np.diag([2e-2, 1e-2]))
    targets = np.array([1e-4, 2e-5])
    selected, steps = sched.plan_selection(prior.cov, targets, (0, 1), fleet, cfg.cap)
    assert len(selected) > 2
    values = sensing.observe(fleet, selected, np.array([-0.49, 0.012]), per_call_normals(np.random.default_rng(0)))
    post = sched.fuse_delivered(prior, selected, selected, values, fleet)
    assert np.array(post.cov).tobytes() == planned_cov(prior.cov, steps).tobytes()


LOSSES = ("all delivered", "none delivered", "first lost", "last lost", "random")


@settings(max_examples=200, deadline=None)
@given(
    specs=sensor_specs,
    prior=spd_2x2(),
    bounds=st.tuples(positive, positive),
    violated=st.sets(st.sampled_from([0, 1])),
    cap=st.integers(min_value=1, max_value=12),
    seed=seeds,
    losses=st.sampled_from(LOSSES),
    data=st.data(),
)
def test_fusion_replaying_the_planner_is_bit_equal(specs, prior, bounds, violated, cap, seed, losses, data):
    fleet = build_fleet(specs)
    belief = est.Belief(np.array([-0.5, 0.01]), prior)
    targets = np.array(bounds)
    selected, steps = sched.plan_selection(prior, targets, tuple(sorted(violated)), fleet, cap)
    assert len(steps) == len(selected)
    if losses == "random":
        lost = [i for i in selected if data.draw(st.booleans())]
    else:
        lost = {
            "all delivered": [], "none delivered": selected, "first lost": selected[:1], "last lost": selected[-1:],
        }[losses]
    delivered = [i for i in selected if i not in lost]
    values = sensing.observe(fleet, selected, np.array([-0.49, 0.012]), per_call_normals(np.random.default_rng(seed)))
    replayed = sched.fuse_delivered(belief, selected, delivered, values, fleet, steps)
    fresh = sched.fuse_delivered(belief, selected, delivered, values, fleet)
    readings = [(fleet.features[i], fleet.noise_vars[i], y) for i, y in zip(selected, values) if i in delivered]
    mean, cov = sequential_fusion(list(belief.mean), prior.tolist(), readings)
    # A fully delivered round takes the replay-only path, any other the general loop; both equal the oracle.
    for got in (replayed, fresh):
        assert np.array(got.mean).tobytes() == np.array(mean).tobytes()
        assert np.array(got.cov).tobytes() == np.array(cov).tobytes()


def test_fully_delivered_round_runs_one_rank1_update_per_pick():
    cfg = config.config_from_dict({"cap": 30, "fleet": {"n_agents": 60}})
    fleet = schemes.build_loop(cfg, "AoL-REVERB", np.random.default_rng(3)).fleet
    belief = est.Belief(np.array([-0.5, 0.01]), np.diag([2e-2, 1e-2]))
    targets = np.array([1e-4, 2e-5])
    with mock.patch.object(est, "rank1_update", wraps=est.rank1_update) as rank1:
        result, _, _ = sched.run_round(
            schemes.select_reverb, sched.fuse_delivered, belief, 0.0, STILL, targets, AolTracker((6, 6), (5, 5)),
            fleet, cfg.channel, {}, cfg.cap, np.array([-0.49, 0.012]), per_call_normals(np.random.default_rng(0)),
        )
    assert len(result.selected) > 2 and result.delivered == result.selected
    assert rank1.call_count == len(result.selected)


def test_rank1_update_retries_with_jitter_then_fails():
    assert est.rank1_update(0.0, 0.0, 0.0, 1.0, 0, 0.0) == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(NumericalError, match="singular"):
        est.rank1_update(-1.0, 0.0, 0.0, 1.0, 0, 0.5)


@pytest.mark.parametrize("bad", ["prior", "variance"])
def test_rank1_update_rejects_non_finite(bad):
    p01 = p10 = 0.0
    r = 1e-3
    if bad == "prior":
        p01 = p10 = math.inf
    else:
        r = math.nan
    with pytest.raises(NumericalError, match="not finite"):
        est.rank1_update(1.0, p01, p10, 1.0, 1, r)


def rank1_outcome(update, *args):
    """The step's six entries, gain then covariance, as hex, or the ``NumericalError``'s message."""
    try:
        step = update(*args)
    except NumericalError as err:
        return str(err)
    return [x.hex() for x in step]


def nested_oracle(p00, p01, p10, p11, k, r):
    """``oracles.rank1_update_nested`` on the nested prior, its step flattened."""
    (g0, g1), ((c00, c01), (c10, c11)) = rank1_update_nested(((p00, p01), (p10, p11)), k, r)
    return g0, g1, c00, c01, c10, c11


# Any float, finite or not: the kernel must fail as the oracle fails, with its message.
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])


@st.composite
def rank1_inputs(draw):
    """(p00, p01, p10, p11, k, r): PSD priors whose off-diagonals may differ within SYMMETRY_TOL,
    readings whose S = P_kk + r is zero (the jitter retry) or negative, an entry or r made
    infinite or NaN, and arbitrary floats."""
    k = draw(st.sampled_from([0, 1]))
    kind = draw(st.sampled_from(["psd", "psd", "jitter", "non-finite", "arbitrary"]))
    if kind == "arbitrary":
        return (*[draw(any_float) for _ in range(4)], k, draw(any_float))
    (p00, p01), (p10, p11) = draw(spd_2x2()).tolist()
    p10 = p01 + draw(st.floats(min_value=-est.SYMMETRY_TOL, max_value=est.SYMMETRY_TOL))
    args = [p00, p01, p10, p11, k, draw(positive)]
    if kind == "jitter":
        # S = P_kk + r at or just below 0, with row k small enough that the retried gain can pass.
        tiny = st.floats(min_value=-1e-13, max_value=1e-13)
        pkk = abs(draw(tiny))
        args[1] = args[2] = draw(tiny)
        args[3 * k] = pkk
        args[5] = -pkk + draw(st.sampled_from([0.0, -1e-13, -2e-12]))
    if kind == "non-finite":
        args[draw(st.sampled_from([0, 1, 2, 3, 5]))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return tuple(args)


@settings(max_examples=1000, deadline=None)
@given(args=rank1_inputs())
@example(args=(0.0, 0.0, 0.0, 1.0, 0, 0.0))            # S = 0: the jitter retry
@example(args=(1e-13, 0.0, 0.0, 1.0, 0, -1e-13))       # S = 0 with a gain after the retry
@example(args=(-1.0, 0.0, 0.0, 1.0, 0, 0.5))           # singular
@example(args=(1.0, math.inf, math.inf, 1.0, 1, 1e-3))  # not finite
@example(args=(1.0, 0.0, 0.0, 1.0, 0, -1.0 + 1e-9))    # Joseph and (I-KH)P disagree
def test_flat_rank1_update_returns_the_nested_oracles_bits(args):
    want = rank1_outcome(nested_oracle, *args)
    assert rank1_outcome(est.rank1_update, *args) == want
    if isinstance(want, list):
        assert want[3] == want[4]   # c01 and c10 are one float


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
    agents = fleet.agents

    def by_distance(ids):
        return sorted(ids, key=lambda i: (agents[i].distance_m, i))

    def by_noise(ids):
        return sorted(ids, key=lambda i: (agents[i].noise_var, i))

    ids = range(len(agents))
    # A greedy selection is a slice of the fleet's own tuple, which the round uses as its table key.
    assert schemes.select_nearest(None, None, None, fleet, cap) == (tuple(by_distance(ids)[:cap]), ())
    assert schemes.select_quietest(None, None, None, fleet, cap) == (tuple(by_noise(ids)[:cap]), ())
    for k in (0, 1):
        own = [i for i in ids if agents[i].feature == k]
        assert fleet.nearest_first[k] == tuple(by_distance(own))
        assert fleet.quietest_first[k] == tuple(by_noise(own))
