"""Age-of-Loop bookkeeping: per-feature ages in query-interval units.

Ages grow by one each interval and reset to 1 when delivered state feedback
closes the loop for a feature (the closing interval itself is one unit old).
``fresh`` checks the thresholds once, one per state feature and each at
least 1, and starts both ages at 0. A tracker is an immutable named tuple
whose ages are a pair: ``tick`` builds ``(a0 + 1, a1 + 1)`` and
``close_loop`` takes a pair of closing flags, one per feature, so the
invariants (two ages, each nonnegative) hold by construction and are not
checked again every interval. A radio round ticks the ages before it selects
and closes the features its delivered readings measure; Perfect's round
never ticks, closes both features and keeps its tracker once the ages are
``(1, 1)``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ConfigError
from .schema import STATE_FEATURES


class AolTracker(NamedTuple):
    """Per-feature ages and their tolerable maxima; start one with ``fresh``."""

    ages: tuple[int, int]
    thresholds: tuple[int, int]

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
        """Both features' loops age by one interval."""
        a0, a1 = self.ages
        return AolTracker((a0 + 1, a1 + 1), self.thresholds)

    def close_loop(self, closes: tuple[bool, bool]) -> "AolTracker":
        """Reset feature k to age 1 where ``closes[k]`` holds; with nothing to close, the tracker itself."""
        c0, c1 = closes
        if not (c0 or c1):
            return self
        a0, a1 = self.ages
        return AolTracker((1 if c0 else a0, 1 if c1 else a1), self.thresholds)

    def violated(self) -> tuple[int, ...]:
        """Features whose age exceeds the tolerable maximum this interval."""
        ages, thresholds = self
        return tuple([k for k in range(len(ages)) if ages[k] > thresholds[k]])
