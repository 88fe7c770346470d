"""Age-of-Loop bookkeeping: per-feature ages in query-interval units.

A feature's age counts the intervals since its loop last closed, the
closing interval counting as one. A tracker is an immutable named tuple
whose ages and thresholds are pairs, so the invariants (two ages, each
nonnegative) hold by construction. ``fresh`` checks the thresholds once,
one integer per state feature and each at least 1, and starts both ages
at 0. A round makes one age transition, ``close_loop`` of its closing
flags: 1 where a flag holds, one older where not, and the tracker itself
when both close at ``(1, 1)``. ``violated``, asked of the last interval's
tracker, names the features due this interval: those whose age has
reached their threshold, so one more interval without feedback would
pass it.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple

from .errors import ConfigError
from .schema import STATE_FEATURES


class AolTracker(NamedTuple):
    """Per-feature ages and their tolerable maxima; start one with ``fresh``."""

    ages: tuple[int, int]
    thresholds: tuple[int, int]

    @classmethod
    def fresh(cls, thresholds: Iterable[int]) -> "AolTracker":
        ts = []
        for t in thresholds:
            try:  # an integer written as one: 2.5 and "3" are rejected, not converted, and true is no number
                if t.__class__ is bool:
                    raise TypeError
                ts.append(operator.index(t))
            except TypeError:
                raise ConfigError(f"aol_thresholds entries must be integers, got {t!r}") from None
        if len(ts) != STATE_FEATURES:
            n = STATE_FEATURES
            raise ConfigError(f"aol_thresholds needs one entry per state feature ({n}), got {tuple(ts)!r}")
        if min(ts) < 1:
            raise ConfigError(f"aol_thresholds must be at least 1, got {tuple(ts)!r}")
        return cls((0, 0), tuple(ts))

    def close_loop(self, closes: tuple[bool, bool]) -> "AolTracker":
        """The round's age transition: feature k's age is 1 where ``closes[k]`` holds, one older where not."""
        c0, c1 = closes
        a0, a1 = self.ages
        if c0 and c1 and a0 == 1 and a1 == 1:
            return self
        return AolTracker((1 if c0 else a0 + 1, 1 if c1 else a1 + 1), self.thresholds)

    def violated(self) -> tuple[int, ...]:
        """Features due this interval: those whose age has reached their threshold."""
        (a0, a1), (t0, t1) = self
        if a0 >= t0:
            return (0, 1) if a1 >= t1 else (0,)
        return (1,) if a1 >= t1 else ()
