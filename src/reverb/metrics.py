"""Aggregate metrics over a batch of episode records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .recordio import EpisodeRecord


@dataclass
class MetricsSummary:
    scheme: str
    episodes: int
    success_rate: float
    mean_qis: float
    mrmse: float                 # mean over episodes of per-interval mean error norm
    failure_prob: float          # intervals with any variance above target / all intervals
    mean_total_prbs: float       # per-episode PRB totals, averaged
    mean_selected: float         # |Q_t| pooled over intervals
    aol_hist: dict = field(default_factory=dict)       # feature -> {age: count}
    prb_cdf: dict = field(default_factory=dict)        # per-interval PRBs -> P[X <= x]
    selected_cdf: dict = field(default_factory=dict)   # |Q_t| -> P[X <= x]

    def to_row(self) -> dict:
        """One flat row of plain values for the summary CSV."""
        return {
            "scheme": self.scheme,
            "episodes": self.episodes,
            "success_rate": self.success_rate,
            "mean_qis": self.mean_qis,
            "mrmse": self.mrmse,
            "failure_prob": self.failure_prob,
            "mean_total_prbs": self.mean_total_prbs,
            "mean_selected": self.mean_selected,
        }

    def to_payload(self) -> dict:
        payload = self.to_row()
        payload["aol_hist"] = {str(k): {str(a): c for a, c in v.items()} for k, v in self.aol_hist.items()}
        payload["prb_cdf"] = {str(k): v for k, v in self.prb_cdf.items()}
        payload["selected_cdf"] = {str(k): v for k, v in self.selected_cdf.items()}
        return payload


def _cdf(values: np.ndarray) -> dict:
    if values.size == 0:
        return {}
    uniq, counts = np.unique(values, return_counts=True)
    cum = np.cumsum(counts) / values.size
    return {int(v): float(c) for v, c in zip(uniq, cum)}


def compute_metrics(records: list[EpisodeRecord]) -> MetricsSummary:
    if not records:
        raise InputError("need at least one episode record")
    scheme = records[0].scheme
    n_sel = np.concatenate([np.asarray(r.columns["n_selected"]) for r in records])
    prbs = np.concatenate([np.asarray(r.columns["prbs"]) for r in records])
    failed = np.concatenate([np.asarray(r.columns["failed"]) for r in records])
    hist: dict[int, dict[int, int]] = {0: {}, 1: {}}
    for r in records:
        for k, col in ((0, "age_pos"), (1, "age_vel")):
            ages, counts = np.unique(np.asarray(r.columns[col]), return_counts=True)
            for a, c in zip(ages, counts):
                hist[k][int(a)] = hist[k].get(int(a), 0) + int(c)
    return MetricsSummary(
        scheme=scheme,
        episodes=len(records),
        success_rate=float(np.mean([r.reached_goal for r in records])),
        mean_qis=float(np.mean([r.qis for r in records])),
        mrmse=float(np.mean([r.mean_error_norm for r in records])),
        failure_prob=float(np.mean(failed)),
        mean_total_prbs=float(np.mean([r.total_prbs for r in records])),
        mean_selected=float(np.mean(n_sel)),
        aol_hist=hist,
        prb_cdf=_cdf(prbs),
        selected_cdf=_cdf(n_sel),
    )
