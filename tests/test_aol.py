import pytest
from hypothesis import given
from hypothesis import strategies as st

from reverb.aol import AolTracker
from reverb.errors import ConfigError


def test_tick_increments_everything():
    t = AolTracker((0, 0), (5, 5)).tick()
    assert t.ages == (1, 1)
    t = AolTracker((3, 1), (5, 5)).tick()
    assert t.ages == (4, 2)


def test_five_ticks_from_zero():
    t = AolTracker.fresh((5, 5))
    for _ in range(5):
        t = t.tick()
    assert t.ages == (5, 5)


def test_close_loop_resets_to_one():
    t = AolTracker((7, 3), (5, 5)).close_loop((True, False))
    assert t.ages == (1, 3)
    assert AolTracker((7, 3), (5, 5)).close_loop((False, True)).ages == (7, 1)
    assert AolTracker((7, 3), (5, 5)).close_loop((True, True)).ages == (1, 1)
    untouched = AolTracker((7, 3), (5, 5))
    assert untouched.close_loop((False, False)) is untouched


def test_violated_inclusive_bound():
    assert AolTracker((5, 2), (5, 5)).violated() == ()
    assert AolTracker((6, 2), (5, 5)).violated() == (0,)
    t = AolTracker((1, 1), (1, 1)).tick()
    assert t.violated() == (0, 1)


def test_validation():
    """``fresh`` checks the thresholds once; ``close_loop`` takes exactly one flag per feature."""
    for thresholds in ((0, 5), (5, 0), (5, -3)):
        with pytest.raises(ConfigError):
            AolTracker.fresh(thresholds)
    assert AolTracker.fresh([1, 2]) == AolTracker((0, 0), (1, 2))
    tracker = AolTracker.fresh((5, 5)).tick().tick()
    for closes in ((True,), (True, False, True), ()):
        with pytest.raises(ValueError):
            tracker.close_loop(closes)
    assert tracker.close_loop(iter([False, True])).ages == (2, 1) and tracker.ages == (2, 2)


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
    ticked = t.tick()
    assert all(b == a + 1 for a, b in zip(t.ages, ticked.ages))
    closed = ticked.close_loop(closes)
    for before, after, close in zip(ticked.ages, closed.ages, closes):
        assert after == (1 if close else before)
    assert closed.violated() == tuple(
        k for k, a in enumerate(closed.ages) if a > thresholds_seed
    )
