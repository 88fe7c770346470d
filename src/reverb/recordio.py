"""Episode records and their CSV persistence.

Column order and headers are frozen (``EPISODE_COLUMNS``); floats are written
with ``repr`` so every row round-trips losslessly and reruns are byte
identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPISODE_COLUMNS = (
    "qi",
    "true_pos",
    "true_vel",
    "belief_pos",
    "belief_vel",
    "cov_pos",
    "cov_vel",
    "target_pos",
    "target_vel",
    "n_selected",
    "selected",
    "delivered",
    "prbs",
    "age_pos",
    "age_vel",
    "reward",
    "force",
    "eta_pos",
    "eta_vel",
    "failed",
)

_INT_COLUMNS = {"qi", "n_selected", "prbs", "age_pos", "age_vel", "failed"}
_STR_COLUMNS = {"selected", "delivered"}
_COLUMN_SET = frozenset(EPISODE_COLUMNS)


@dataclass
class EpisodeRecord:
    """Per-interval log of one episode plus its summary facts."""

    scheme: str = ""
    seed: int = 0
    reached_goal: bool = False
    columns: dict = field(default_factory=lambda: {c: [] for c in EPISODE_COLUMNS})

    def append(self, **values) -> None:
        if values.keys() != _COLUMN_SET:
            missing = set(EPISODE_COLUMNS) - set(values)
            extra = set(values) - set(EPISODE_COLUMNS)
            raise ValueError(f"bad row: missing {missing or '{}'}, extra {extra or '{}'}")
        for c in EPISODE_COLUMNS:
            self.columns[c].append(values[c])

    def __len__(self) -> int:
        return len(self.columns["qi"])

    @property
    def qis(self) -> int:
        return len(self)

    @property
    def total_prbs(self) -> int:
        return int(sum(self.columns["prbs"]))

    @property
    def failure_count(self) -> int:
        return int(sum(self.columns["failed"]))

    @property
    def mean_error_norm(self) -> float:
        """Per-interval mean of ||true state - belief mean||_2."""
        ex = np.array(self.columns["true_pos"]) - np.array(self.columns["belief_pos"])
        ev = np.array(self.columns["true_vel"]) - np.array(self.columns["belief_vel"])
        return float(np.mean(np.hypot(ex, ev)))


def _fmt(col: str, value) -> str:
    if col in _STR_COLUMNS:
        return str(value)
    if col in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def write_episode_csv(record: EpisodeRecord, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_COLUMNS)
        for i in range(len(record)):
            writer.writerow([_fmt(c, record.columns[c][i]) for c in EPISODE_COLUMNS])


def write_summary_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ValueError("no summary rows to write")
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [repr(float(row[c])) if isinstance(row[c], float) else str(row[c]) for c in columns]
            )


def write_summary_json(payload, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
