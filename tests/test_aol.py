import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reverb import config, schemes
from reverb.aol import AolTracker
from reverb.errors import ConfigError

import oracles

OPEN = (False, False)  # a round that closes no loop


def test_an_open_round_ages_everything():
    t = AolTracker((0, 0), (5, 5)).close_loop(OPEN)
    assert t.ages == (1, 1)
    t = AolTracker((3, 1), (5, 5)).close_loop(OPEN)
    assert t.ages == (4, 2)


def test_five_open_rounds_from_zero():
    t = AolTracker.fresh((5, 5))
    for _ in range(5):
        t = t.close_loop(OPEN)
    assert t.ages == (5, 5)


def test_close_loop_resets_to_one():
    """A closed feature's age is 1, an open one's one older; at ``(1, 1)`` closing both keeps the tracker."""
    t = AolTracker((7, 3), (5, 5)).close_loop((True, False))
    assert t.ages == (1, 4)
    assert AolTracker((7, 3), (5, 5)).close_loop((False, True)).ages == (8, 1)
    assert AolTracker((7, 3), (5, 5)).close_loop((True, True)).ages == (1, 1)
    fresh = AolTracker((1, 1), (5, 5))
    assert fresh.close_loop((True, True)) is fresh
    assert fresh.close_loop((True, False)).ages == (1, 2)


def test_violated_inclusive_bound():
    """A feature is due once its age has reached its threshold: one more open round would pass it."""
    assert AolTracker((4, 2), (5, 5)).violated() == ()
    assert AolTracker((5, 2), (5, 5)).violated() == (0,)
    assert AolTracker((2, 5), (5, 5)).violated() == (1,)
    assert AolTracker((1, 1), (1, 1)).violated() == (0, 1)
    assert AolTracker.fresh((1, 1)).violated() == ()


def test_validation():
    """``fresh`` checks the thresholds once; ``close_loop`` takes exactly one flag per feature."""
    for thresholds in ((0, 5), (5, 0), (5, -3)):
        with pytest.raises(ConfigError):
            AolTracker.fresh(thresholds)
    assert AolTracker.fresh([1, 2]) == AolTracker((0, 0), (1, 2))
    assert AolTracker.fresh(np.array([3, 4])) == AolTracker((0, 0), (3, 4))
    tracker = AolTracker.fresh((5, 5)).close_loop(OPEN).close_loop(OPEN)
    for closes in ((True,), (True, False, True), ()):
        with pytest.raises(ValueError):
            tracker.close_loop(closes)
    assert tracker.close_loop(iter([False, True])).ages == (3, 1) and tracker.ages == (2, 2)


@pytest.mark.parametrize(
    "bad",
    [2.5, True, np.True_, "3", math.nan, None, np.float64(2.0)],
    ids=["float", "bool", "numpy-bool", "text", "nan", "none", "numpy-float"],
)
def test_fresh_rejects_a_threshold_that_is_not_an_integer(bad):
    """A threshold is read as written: 2.5 is rejected, not truncated, and true is no number."""
    with pytest.raises(ConfigError, match=re.escape(f"aol_thresholds entries must be integers, got {bad!r}")):
        AolTracker.fresh((bad, 3))


@pytest.mark.parametrize("thresholds", [[1, 1, 1], [5], []])
def test_fresh_needs_one_threshold_per_state_feature(thresholds):
    """Three thresholds once made a tracker whose first AoL-REVERB round failed in the planner."""
    with pytest.raises(ConfigError, match=r"one entry per state feature \(2\)"):
        AolTracker.fresh(thresholds)


@given(
    ages=st.tuples(st.integers(0, 50), st.integers(0, 50)),
    thresholds_seed=st.integers(1, 20),
    closes=st.tuples(st.booleans(), st.booleans()),
)
def test_ops_only_touch_expected_entries(ages, thresholds_seed, closes):
    thresholds = (thresholds_seed, thresholds_seed)
    t = AolTracker(ages, thresholds)
    closed = t.close_loop(closes)
    for before, after, close in zip(t.ages, closed.ages, closes):
        assert after == (1 if close else before + 1)
    assert closed.thresholds == thresholds and t.ages == ages
    assert closed.violated() == tuple(
        k for k, a in enumerate(closed.ages) if a >= thresholds_seed
    )


@given(
    ages=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    thresholds=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    closes=st.sampled_from([(False, False), (True, False), (False, True), (True, True)]),
)
def test_one_transition_matches_the_tick_then_close_oracle(ages, thresholds, closes):
    """``violated`` before the transition and ``close_loop`` are the two-step rule of ``oracles.age_round``."""
    tracker = AolTracker(ages, thresholds)
    due, after = oracles.age_round(ages, thresholds, closes)
    assert tracker.violated() == due
    closed = tracker.close_loop(closes)
    assert closed.ages == after and closed.thresholds == thresholds
    assert (closed is tracker) == (ages == (1, 1) and closes == (True, True))


LOSSY_PATH = Path(__file__).resolve().parents[1] / "configs" / "lossy.yaml"


@pytest.mark.parametrize("config_name", ["headline", "lossy"])
@pytest.mark.parametrize("scheme", ["AoL-REVERB", "CB-Greedy", "EB-Greedy", "Traditional", "Perfect"])
def test_every_scheme_ages_by_the_oracle(scheme, config_name):
    """After every step, ``loop.aol.ages`` is the oracle's, from the last ages and the step's closed loops;
    AoL-REVERB's round services the oracle's due features with their nearest sensors."""
    cfg = config.RunConfig() if config_name == "headline" else config.load_config(LOSSY_PATH)
    loop = schemes.build_loop(cfg, scheme, np.random.default_rng(7))
    policy = schemes.make_policy(cfg)
    features, lost = loop.fleet.features, 0
    for _ in range(cfg.qi_cap):
        before = loop.aol.ages
        action = policy(loop.belief.mean)
        res = loop.step(action.force, action.accuracy)
        schedule = res.schedule
        closed = {0, 1} if scheme == "Perfect" else {features[i] for i in schedule.delivered}
        due, want = oracles.age_round(before, cfg.aol_thresholds, (0 in closed, 1 in closed))
        assert loop.aol.ages == want
        if scheme == "AoL-REVERB":
            assert schedule.selected[:len(due)] == tuple(loop.fleet.nearest_first[k][0] for k in due)
        lost += len(schedule.selected) - len(schedule.delivered)
        if res.done:
            break
    # The lossy channel loses picks on every radio scheme, so open rounds are seen there.
    assert (lost > 0) == (config_name == "lossy" and scheme != "Perfect")
