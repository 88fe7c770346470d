"""Span tracing from outside the program: wrap functions, time them, put them back.

``Patcher`` swaps attributes of modules and classes for wrappers and restores
every original on exit, also when the block raises. ``Tracer`` makes the
wrappers: each call becomes a span with a name, start, end, parent span and
request id (the episode). A span's self time is its duration minus the
durations of its child spans; calls run on one thread, so children never
overlap and their summed durations are exactly the time they cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

# Span record layout in ``Tracer.spans`` and in the span dump.
SPAN_FIELDS = ("id", "name", "episode", "parent", "start_ns", "end_ns", "self_ns")


class Patcher:
    """Replace attributes with wrappers; undo every replacement, newest first, on close."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper, namespaces=()) -> None:
        """Wrap ``owner.attr`` and every alias of it bound under the same name in ``namespaces``.

        Functions imported with ``from module import name`` are separate
        bindings of one object, so each binding must be replaced for the
        wrapper to see every call. Class- and static-method descriptors are
        unwrapped and rebuilt around the wrapper.
        """
        raw = owner.__dict__[attr]
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        wrapped = make_wrapper(raw.__func__ if descriptor else raw)
        new = descriptor(wrapped) if descriptor else wrapped
        holders = [owner] + [
            ns for ns in namespaces if ns is not owner and ns.__dict__.get(attr) is raw
        ]
        for holder in holders:
            self._undo.append((holder, attr, raw))
            setattr(holder, attr, new)

    def close(self) -> None:
        while self._undo:
            holder, attr, raw = self._undo.pop()
            setattr(holder, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class LayerStat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Records spans in memory: totals per name for every call, full records for the first ``keep``."""

    def __init__(self, clock=time.perf_counter_ns, keep: int = 20_000) -> None:
        self.clock = clock
        self.keep = keep
        self.request = 0
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []   # open spans: [span id, child time]
        self._last_id = 0

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recorded as span ``name``; ``on_result(result)`` sees each return value."""
        stat = self.stats.setdefault(name, LayerStat())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._last_id += 1
            frame = [self._last_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += own
                if len(self.spans) < self.keep:
                    self.spans.append((frame[0], name, self.request, parent, start, end, own))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def reset(self) -> None:
        """Zero the totals and drop kept spans; installed wrappers keep recording."""
        for stat in self.stats.values():
            stat.calls = stat.total_ns = stat.self_ns = 0
        self.spans.clear()


def percentile(samples, weights, p: float):
    """Weighted nearest-rank ``p``-th percentile.

    Returns the smallest sample whose cumulative weight reaches ``p`` percent
    of the total, or None when fewer than ten samples lie above it.
    """
    if not samples:
        return None
    order = sorted(range(len(samples)), key=samples.__getitem__)
    total = float(sum(weights))
    target = p / 100.0 * total * (1.0 - 1e-12)   # absorbs rounding in the running sum
    reached = 0.0
    for rank, i in enumerate(order, start=1):
        reached += weights[i]
        if reached >= target:
            break
    if len(samples) - rank < 10:
        return None
    return samples[i]
