"""Whole episodes against ``oracles.reference_episode``, column by column and bit for bit.

The reference composes the round from per-sensor and per-link oracles, so
this checks what no stage test does: the order of the draws across plant,
sensors and fades, which features close their loops, the blind intervals,
and fusion that replays the planner's steps only up to the first lost pick.
"""

import numpy as np

from reverb import config
from reverb import control as ctl
from reverb.config import SCHEMES
from reverb.recordio import EPISODE_COLUMNS
from reverb.schemes import make_policy, run_episode

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
