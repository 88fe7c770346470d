"""Whole episodes against ``oracles.reference_episode``, column by column and bit for bit.

The reference composes the round from per-sensor and per-link oracles, so
this checks what no stage test does: the order of the draws across plant,
sensors and fades, which features close their loops, the blind intervals,
and fusion that replays the planner's steps only up to the first lost pick.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reverb import channel as ch
from reverb import config
from reverb import control as ctl
from reverb.config import SCHEMES
from reverb.errors import ReverbError
from reverb.recordio import EPISODE_COLUMNS
from reverb.runner import monte_carlo
from reverb.schemes import build_loop, make_policy, run_episode

from oracles import reference_episode

CONFIGS = {
    "headline": {"qi_cap": 200},
    # About a fifth of the uplinks miss their deadline, and rounds pick many sensors.
    "lossy": {"qi_cap": 200, "cap": 30, "fleet": {"n_agents": 60}, "channel": {"outage_target": 0.2}},
    # Every setting the loop reads from the config off its default, so reading a default would show.
    "retuned": {
        "qi_cap": 200,
        "cap": 4,
        "aol_thresholds": [2, 3],
        "required_var": [0.02, 0.001],
        "init_belief_var": 1e-3,
        "process_noise_var": [4e-6, 5e-7],
    },
}
SEEDS = (1, 2, 3)


def rows(record):
    """Every logged row, floats as their exact hex form."""
    columns = [[v if isinstance(v, str) else float(v).hex() for v in record.columns[c]] for c in EPISODE_COLUMNS]
    return list(zip(*columns))


def first_difference(got, want):
    """The first interval whose logged row differs, naming its columns, or None."""
    got_rows, want_rows = rows(got), rows(want)
    for qi, (a, b) in enumerate(zip(got_rows, want_rows)):
        if a != b:
            return f"at qi {qi}, columns {[c for c, x, y in zip(EPISODE_COLUMNS, a, b) if x != y]}"
    if len(got_rows) != len(want_rows) or got.reached_goal != want.reached_goal:
        return f"{len(got_rows)} rows against {len(want_rows)}, goal {got.reached_goal} against {want.reached_goal}"
    return None


def lost_then_delivered(record):
    """Intervals where a pick was lost and a later pick of the same round arrived."""
    count = 0
    for selected, delivered in zip(record.columns["selected"], record.columns["delivered"]):
        ids, arrived = selected.split(";") if selected else [], set(delivered.split(";")) - {""}
        lost = [j for j, i in enumerate(ids) if i not in arrived]
        count += bool(lost) and any(i in arrived for i in ids[lost[0] + 1:])
    return count


def test_run_episode_matches_the_reference_episode():
    blind_reverb = replayed_past_a_loss = 0
    for name, overrides in CONFIGS.items():
        cfg = config.config_from_dict(overrides)
        untrained = ctl.PolicyAgent(cfg.control, np.random.default_rng(0))
        for policy_name, policy in (("scripted", make_policy(cfg)), ("untrained", make_policy(cfg, untrained))):
            for scheme in SCHEMES:
                for seed in SEEDS:
                    got = run_episode(cfg, scheme, policy, seed)
                    want = reference_episode(cfg, scheme, policy, seed)
                    diff = first_difference(got, want)
                    assert diff is None, f"{name} config, {policy_name} policy, {scheme}, seed {seed}: {diff}"
                    if scheme == "AoL-REVERB":
                        blind_reverb += got.columns["n_selected"].count(0)
                        replayed_past_a_loss += lost_then_delivered(got)
    assert blind_reverb > 0, "no blind AoL-REVERB interval was checked"
    assert replayed_past_a_loss > 0, "no AoL-REVERB round lost a pick and delivered a later one"


def unit_interval_pair(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(list)


@st.composite
def run_configs(draw):
    """A valid run configuration with every setting the round reads drawn off its default."""
    outage = draw(st.floats(1e-6, 0.3))
    q = ch.gaussian_q_inv(outage)
    return config.config_from_dict({
        "qi_cap": draw(st.integers(20, 60)),
        "cap": draw(st.integers(1, 30)),
        "aol_thresholds": draw(st.tuples(st.integers(1, 10), st.integers(1, 10)).map(list)),
        "required_var": draw(unit_interval_pair(1e-4, 5e-2)),
        "scripted_accuracy": draw(unit_interval_pair(0.0, 1e5)),
        "process_noise_var": draw(unit_interval_pair(0.0, 1e-4)),
        "init_belief_var": draw(st.floats(1e-6, 1e-2)),
        # rician_k above the strong-LoS bound 0.5 Qinv(outage)^2 that ChannelParams requires.
        "channel": {"outage_target": outage, "rician_k": 0.5 * q * q + draw(st.floats(0.1, 40.0))},
        "fleet": {
            "n_agents": draw(st.integers(2, 60)),
            # Far and weak enough that some links have no finite bandwidth.
            "max_distance_m": draw(st.floats(2.0, 100.0)),
            "tx_power_w": draw(st.floats(1e-3, 0.1)),
        },
    })


def outcome(run, cfg, scheme, policy, seed):
    """The episode's rows and goal flag, or the class and message of the ReverbError it raised."""
    try:
        record = run(cfg, scheme, policy, seed)
    except ReverbError as exc:
        return type(exc), str(exc)
    return rows(record), record.reached_goal


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(cfg=run_configs(), agent=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_generated_configs_match_the_reference_episode(cfg, scheme, agent, seed):
    """Every column as exact hex, or the same ReverbError (an infeasible link, say) from both.

    The policy is the scripted pump or, with ``agent``, an untrained agent's mean action.
    """
    policy = make_policy(cfg, ctl.PolicyAgent(cfg.control, np.random.default_rng(seed)) if agent else None)
    got = outcome(run_episode, cfg, scheme, policy, seed)
    want = outcome(reference_episode, cfg, scheme, policy, seed)
    assert got == want


LOSSY = Path(__file__).resolve().parents[1] / "configs" / "lossy.yaml"


def test_ages_follow_the_per_feature_rule_on_the_lossy_config():
    """``bench --episodes 5 --seed 1`` on ``configs/lossy.yaml``: every logged age, every scheme.

    The oracle reads only the episode CSV's columns and the fleet: a feature's
    age is 1 in an interval where a reading of one of its sensors arrived
    (Perfect: every interval), and one more than in the interval before
    otherwise, from 0. Lost picks are counted so the partial rounds are seen.
    """
    cfg = config.load_config(LOSSY)
    lost = partial_close = 0
    for scheme in SCHEMES:
        _, records = monte_carlo(cfg, 5, scheme=scheme)
        for i, record in enumerate(records):
            features = build_loop(cfg, scheme, np.random.default_rng(cfg.seed + i)).fleet.features
            ages = [0, 0]
            columns = record.columns
            for selected, delivered, age_pos, age_vel in zip(
                columns["selected"], columns["delivered"], columns["age_pos"], columns["age_vel"]
            ):
                picks = [int(s) for s in selected.split(";")] if selected else []
                arrived = [int(s) for s in delivered.split(";")] if delivered else []
                closed = {0, 1} if scheme == "Perfect" else {features[s] for s in arrived}
                ages = [1 if k in closed else a + 1 for k, a in enumerate(ages)]
                assert [age_pos, age_vel] == ages, f"{scheme} episode {i}"
                lost += len(picks) - len(arrived)
                partial_close += len(arrived) < len(picks) and closed != {features[s] for s in picks}
    assert lost >= 100 and partial_close > 0
