"""Age-of-Loop bookkeeping: per-feature ages in query-interval units.

Ages grow by one each interval and reset to 1 when delivered state feedback
closes the loop for a feature (the closing interval itself is one unit old).
``fresh`` checks the thresholds once, one per state feature and each at
least 1, and starts both ages at 0. A tracker is an immutable named tuple:
``tick`` and ``close_loop`` build the next ages as plain tuples, which keeps
the invariants by construction (one age per threshold, every age
nonnegative), so they are not checked again every interval. ``close_loop``
checks each feature index it is given and returns the tracker itself when
nothing closes. ``TwinLoop.step`` ticks the ages before the round; a radio
round closes the features of the readings that arrived, and Perfect's round
closes every feature.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ConfigError, InputError
from .schema import STATE_FEATURES


class AolTracker(NamedTuple):
    """Per-feature ages and their tolerable maxima; start one with ``fresh``."""

    ages: tuple[int, ...]
    thresholds: tuple[int, ...]

    @classmethod
    def fresh(cls, thresholds: Iterable[int]) -> "AolTracker":
        ts = tuple(int(t) for t in thresholds)
        if len(ts) != STATE_FEATURES:
            n = STATE_FEATURES
            raise ConfigError(f"aol_thresholds needs one entry per state feature ({n}), got {ts!r}")
        if min(ts) < 1:
            raise ConfigError("thresholds must be at least 1")
        return cls((0, 0), ts)

    def tick(self) -> "AolTracker":
        """Every feature's loop ages by one interval."""
        return AolTracker(tuple([a + 1 for a in self.ages]), self.thresholds)

    def close_loop(self, features: Iterable[int]) -> "AolTracker":
        """Reset the listed features to age 1; others are untouched."""
        ages = self.ages
        n = len(ages)
        closed = None
        for k in features:
            if not 0 <= k < n:
                raise InputError("feature index out of range")
            if closed is None:
                closed = list(ages)
            closed[k] = 1
        return self if closed is None else AolTracker(tuple(closed), self.thresholds)

    def violated(self) -> tuple[int, ...]:
        """Features whose age exceeds the tolerable maximum this interval."""
        ages, thresholds = self
        return tuple([k for k in range(len(ages)) if ages[k] > thresholds[k]])
