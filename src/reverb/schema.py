"""The declared input contract of the run configuration, and its one validator.

Each config field is declared with ``spec``: a kind (``int``, ``float``,
``str``, or a tuple of these), optionally a rule every value obeys,
optionally one entry per state feature. ``check_fields``, called by every
config ``__post_init__``, converts each value to its kind and enforces the
rest, so YAML, ``dataclasses.replace`` and direct construction are checked
alike. A real must be finite; a string such as YAML's ``1e-4`` reads as one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import field, fields

from .errors import ConfigError

STATE_FEATURES = 2  # mountain car: position, velocity

# A rule: (test on one value, what the test demands).
POSITIVE = (lambda x: x > 0, "strictly positive")
NONNEGATIVE = (lambda x: x >= 0, "nonnegative")


def at_least(n: int):
    return (lambda x: x >= n, f"at least {n}")


def within(lo: float, hi: float):
    return (lambda x: lo <= x <= hi, f"within [{lo}, {hi}]")


def positive_at_most(hi: float):
    return (lambda x: 0 < x <= hi, f"strictly positive and at most {hi}")


def one_of(*options):
    return (options.__contains__, f"one of {', '.join(map(str, options))}")


def spec(default, kind, rule=None, per_feature: bool = False):
    """A field of ``kind``; ``(k,)`` is a tuple of k of any length, ``(k, k)`` a pair."""
    n = STATE_FEATURES if per_feature else None
    return field(default=default, metadata={"kind": kind, "rule": rule, "n": n})


_PHRASES = {int: "an integer", float: "a number", str: "a string"}


class _Mismatch(Exception):
    """args (phrase, value): ``value`` is not ``phrase``; None means the field's list shape."""


def _convert(value, kind, rule):
    """``value`` as ``kind``, every entry finite if real and obeying ``rule``."""
    if isinstance(kind, tuple):
        if not isinstance(value, (list, tuple)) or (len(kind) > 1 and len(value) != len(kind)):
            raise _Mismatch(None, value)
        kinds = kind if len(kind) > 1 else kind * len(value)
        return tuple(_convert(v, k, rule) for v, k in zip(value, kinds))
    out = None
    if not isinstance(value, bool):  # true is no number and no string
        try:  # an int must be written as one: 2.5 is rejected, not truncated
            out = operator.index(value) if kind is int else float(value) if kind is float else value
        except (TypeError, ValueError, OverflowError):
            pass
    if not isinstance(out, kind):
        raise _Mismatch(_PHRASES[kind], value)
    test, demand = rule or (None, "")
    if (kind is float and not math.isfinite(out)) or (test is not None and not test(out)):
        raise _Mismatch(f"finite and {demand}" if kind is float and demand else demand or "finite", out)
    return out


def check_fields(obj) -> None:
    """Convert every declared field of ``obj`` to its kind; a ConfigError names a bad one."""
    for f in fields(obj):
        if "kind" not in f.metadata:
            continue  # a section: a config object that checked itself
        kind, rule, n = f.metadata["kind"], f.metadata["rule"], f.metadata["n"]
        raw = getattr(obj, f.name)
        try:
            value = _convert(raw, kind, rule)
        except _Mismatch as bad:
            phrase, shown = bad.args
            if phrase is None:
                phrase = "a list of [lo, hi] pairs" if isinstance(kind[0], tuple) else "a list"
                shown = raw
            raise ConfigError(f"{f.name} must be {phrase}, got {shown!r}") from None
        if n is not None and len(value) != n:
            raise ConfigError(f"{f.name} needs one entry per state feature ({n}), got {raw!r}")
        object.__setattr__(obj, f.name, value)
