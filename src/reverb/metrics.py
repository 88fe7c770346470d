"""Aggregate metrics over a batch of episode records.

Every count is an exact integer tally in plain Python: episodes reaching the
goal, QIs, picks, PRBs and failures, and the value counts behind the two age
histograms and the PRB and pick CDFs. A rate is one tally over another:
the float ``np.mean`` of the counted values gives, since their sum is exact.
Only the float means, ``mrmse`` and each record's ``mean_error_norm``, are
``np.mean`` over floats, where the summation order sets the bits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
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


def _cdf(counts: Counter, n: int) -> dict:
    """Value -> the share of the ``n`` counted values at or below it, in increasing order."""
    cdf = {}
    below = 0
    for v in sorted(counts):
        below += counts[v]
        cdf[v] = below / n
    return cdf


def compute_metrics(records: list[EpisodeRecord]) -> MetricsSummary:
    if not records:
        raise InputError("need at least one episode record")
    n_sel, prbs = Counter(), Counter()
    hist: dict[int, dict[int, int]] = {0: {}, 1: {}}
    for r in records:
        columns = r.columns
        n_sel.update(columns["n_selected"])
        prbs.update(columns["prbs"])
        for k, col in ((0, "age_pos"), (1, "age_vel")):
            ages, h = Counter(columns[col]), hist[k]
            for a in sorted(ages):  # per record in increasing age, as the keys first appear
                h[a] = h.get(a, 0) + ages[a]
    counts = [r.qis for r in records]
    qis = sum(counts)
    if not qis:
        raise InputError("need at least one logged interval")
    if 0 in counts:  # its mean error norm would be the mean of nothing
        n = counts.index(0)
        raise InputError(f"episode record {n} ({records[n].scheme!r}) has no logged interval")
    try:
        mean_total_prbs = sum([r.total_prbs for r in records]) / len(records)
    except OverflowError:  # each link's PRB count is finite, their sum need not be
        raise NumericalError("the mean PRB total per episode is past the float range") from None
    return MetricsSummary(
        scheme=records[0].scheme,
        episodes=len(records),
        success_rate=sum([bool(r.reached_goal) for r in records]) / len(records),
        mean_qis=qis / len(records),
        mrmse=float(np.mean([r.mean_error_norm for r in records])),
        failure_prob=sum([r.failure_count for r in records]) / qis,
        mean_total_prbs=mean_total_prbs,
        mean_selected=sum([v * c for v, c in n_sel.items()]) / qis,
        aol_hist=hist,
        prb_cdf=_cdf(prbs, qis),
        selected_cdf=_cdf(n_sel, qis),
    )
