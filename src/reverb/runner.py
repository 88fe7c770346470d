"""Monte-Carlo harness: seeded batches of episodes and parameter sweeps."""

from __future__ import annotations

import dataclasses

from .config import RunConfig
from .control import PolicyAgent
from .errors import InputError
from .metrics import MetricsSummary, compute_metrics
from .recordio import EpisodeRecord
from .schemes import make_policy, run_episode


def monte_carlo(
    cfg: RunConfig,
    n_episodes: int,
    scheme: str,
    agent: PolicyAgent | None = None,
) -> tuple[MetricsSummary, list[EpisodeRecord]]:
    """Run ``n_episodes`` seeded episodes (seed = base + index) and aggregate."""
    if n_episodes < 1:
        raise InputError("need at least one episode")
    policy = make_policy(cfg, agent)
    records = [
        run_episode(cfg, scheme, policy, seed=cfg.seed + i) for i in range(n_episodes)
    ]
    return compute_metrics(records), records


def sweep_values(spec: str) -> tuple[str, list[int]]:
    """Parse a sweep request like ``C:1..30`` or ``aol:1..10``."""
    try:
        name, span = spec.split(":", 1)
        lo, hi = span.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad sweep spec {spec!r}; expected NAME:LO..HI") from exc
    if name not in ("C", "aol"):
        raise InputError(f"unknown sweep parameter {name!r}; choose C or aol")
    if lo_i < 1 or hi_i < lo_i:
        raise InputError(f"bad sweep range {span!r}")
    return name, list(range(lo_i, hi_i + 1))


def apply_sweep_point(cfg: RunConfig, name: str, value: int) -> RunConfig:
    if name == "C":
        return dataclasses.replace(cfg, cap=value)
    if name == "aol":
        return dataclasses.replace(cfg, aol_thresholds=(value,) * len(cfg.aol_thresholds))
    raise InputError(f"unknown sweep parameter {name!r}")


def run_sweep(
    cfg: RunConfig,
    sweep: str,
    n_episodes: int,
    schemes: list[str],
    agent: PolicyAgent | None = None,
) -> list[tuple[str, int, MetricsSummary]]:
    """Monte-Carlo at every sweep point for every scheme; returns (scheme, value, summary)."""
    name, values = sweep_values(sweep)
    out = []
    for scheme in schemes:
        for value in values:
            point_cfg = apply_sweep_point(cfg, name, value)
            summary, _ = monte_carlo(point_cfg, n_episodes, scheme=scheme, agent=agent)
            out.append((scheme, value, summary))
    return out
