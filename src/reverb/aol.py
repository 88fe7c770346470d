"""Age-of-Loop bookkeeping: per-feature ages in query-interval units.

Ages grow by one each interval and reset to 1 when delivered state feedback
closes the loop for a feature (the closing interval itself is one unit old).
``fresh`` checks the thresholds once and starts every age at 0; ``tick`` and
``close_loop`` then build the next ages as plain tuples, which keep the
invariants by construction (one age per threshold, every age nonnegative), so
they are not checked again every interval. ``close_loop`` checks the feature
indices it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError, InputError


@dataclass(frozen=True)
class AolTracker:
    """Per-feature ages and their tolerable maxima; start one with ``fresh``."""

    ages: tuple[int, ...]
    thresholds: tuple[int, ...]

    @classmethod
    def fresh(cls, thresholds: Iterable[int]) -> "AolTracker":
        ts = tuple(int(t) for t in thresholds)
        if min(ts, default=1) < 1:
            raise ConfigError("thresholds must be at least 1")
        return cls(ages=(0,) * len(ts), thresholds=ts)

    def tick(self) -> "AolTracker":
        """Every feature's loop ages by one interval."""
        return AolTracker(tuple(a + 1 for a in self.ages), self.thresholds)

    def close_loop(self, features: Iterable[int]) -> "AolTracker":
        """Reset the listed features to age 1; others are untouched."""
        closing = set(features)
        if closing and (min(closing) < 0 or max(closing) >= len(self.ages)):
            raise InputError("feature index out of range")
        ages = tuple(1 if k in closing else a for k, a in enumerate(self.ages))
        return AolTracker(ages, self.thresholds)

    def violated(self) -> tuple[int, ...]:
        """Features whose age exceeds the tolerable maximum this interval."""
        return tuple(k for k, (a, t) in enumerate(zip(self.ages, self.thresholds)) if a > t)
