"""Episode records and their CSV persistence.

Column order and headers are frozen (``EPISODE_COLUMNS``); floats are written
with ``repr`` so every row round-trips losslessly and reruns are byte
identical. A record keeps one tuple per interval in that order, as the loop
produced it: floats and ints, with ``selected`` and ``delivered`` as tuples
of agent ids. ``columns`` is a plain dict, column name -> list, built in one
pass when first read and dropped by the next ``append``; in it each id tuple
is ``;``-joined text, each distinct tuple joined once per build. The totals
``total_prbs``, ``failure_count`` and ``mean_error_norm`` and the episode CSV
are read from the rows, so neither builds that dict.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
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
_PRBS, _FAILED = itemgetter(EPISODE_COLUMNS.index("prbs")), itemgetter(EPISODE_COLUMNS.index("failed"))
_NO_ROWS = ((),) * len(EPISODE_COLUMNS)  # the columns of a record without rows


@dataclass
class EpisodeRecord:
    """Per-interval log of one episode plus its summary facts."""

    scheme: str = ""
    reached_goal: bool = False
    rows: list[tuple] = field(default_factory=list)
    _columns: dict[str, list] | None = field(default=None, init=False, repr=False, compare=False)

    def append(self, row: tuple) -> None:
        """Log one interval: a tuple of values in ``EPISODE_COLUMNS`` order."""
        if len(row) != len(EPISODE_COLUMNS):
            raise ValueError(f"bad row: {len(row)} values for {len(EPISODE_COLUMNS)} columns")
        self.rows.append(row)
        self._columns = None

    @property
    def columns(self) -> dict[str, list]:
        """Column name -> the values of every row; agent ids as ``;``-joined text."""
        if self._columns is None:
            columns = dict(zip(EPISODE_COLUMNS, map(list, zip(*self.rows) if self.rows else _NO_ROWS)))
            # Each distinct id tuple is joined once, whichever id column it appears in.
            texts = {ids: ";".join(map(str, ids)) for ids in {*columns["selected"], *columns["delivered"]}}
            for c in _STR_COLUMNS:
                columns[c] = [texts[ids] for ids in columns[c]]
            self._columns = columns
        return self._columns

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def qis(self) -> int:
        return len(self)

    @property
    def total_prbs(self) -> int:
        return int(sum(map(_PRBS, self.rows)))

    @property
    def failure_count(self) -> int:
        return int(sum(map(_FAILED, self.rows)))

    @property
    def mean_error_norm(self) -> float:
        """Per-interval mean of ||true state - belief mean||_2."""
        _, true_pos, true_vel, belief_pos, belief_vel = islice(zip(*self.rows) if self.rows else _NO_ROWS, 5)
        ex = np.array(true_pos) - np.array(belief_pos)
        ev = np.array(true_vel) - np.array(belief_vel)
        return float(np.mean(np.hypot(ex, ev)))


def _fmt(col: str, value) -> str:
    if col in _STR_COLUMNS:
        return ";".join(map(str, value))
    if col in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def write_episode_csv(record: EpisodeRecord, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_COLUMNS)
        for row in record.rows:
            writer.writerow([_fmt(c, value) for c, value in zip(EPISODE_COLUMNS, row)])


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


def write_json(payload, path: str | Path) -> None:
    """``payload`` as JSON: indent 2, sorted keys, a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
