"""Episode records and their CSV persistence.

Column order and headers are frozen (``EPISODE_COLUMNS``); floats are written
with ``repr`` so every row round-trips losslessly and reruns are byte
identical. A record keeps one tuple per interval in that order, as the loop
produced it: floats and ints, with ``selected`` and ``delivered`` as tuples
of agent ids. ``columns``, the per-column view the metrics and the CSV read,
is built when it is first read and kept until the next ``append``; an id
column is joined into ``;``-separated text only when that column is read,
since the metrics read none, and each distinct id tuple is joined once per
view, whichever id column it appears in. The record's totals, ``total_prbs``,
``failure_count`` and ``mean_error_norm``, are computed when first read and
kept until the next ``append`` as well.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator, Mapping
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


class _Columns(Mapping):
    """The per-column view of a record's rows; an id column is joined into text when first read."""

    def __init__(self, rows: list[tuple]) -> None:
        self.totals: dict[str, object] = {}  # the record's totals computed from these columns
        values = zip(*rows) if rows else ((),) * len(EPISODE_COLUMNS)
        self._lists: dict[str, list] = {}
        self._ids: dict[str, tuple] = {}
        self._texts: dict[tuple, str] = {}  # id tuple -> its ``;``-joined text
        for c, v in zip(EPISODE_COLUMNS, values):
            if c in _STR_COLUMNS:
                self._ids[c] = v
            else:
                self._lists[c] = list(v)

    def __getitem__(self, column: str) -> list:
        ids = self._ids.pop(column, None)
        if ids is not None:
            texts, column_texts = self._texts, []
            for row_ids in ids:
                text = texts.get(row_ids)
                if text is None:
                    text = texts[row_ids] = ";".join(map(str, row_ids))
                column_texts.append(text)
            self._lists[column] = column_texts
        return self._lists[column]

    def __iter__(self) -> Iterator[str]:
        return iter(EPISODE_COLUMNS)

    def __len__(self) -> int:
        return len(EPISODE_COLUMNS)


@dataclass
class EpisodeRecord:
    """Per-interval log of one episode plus its summary facts."""

    scheme: str = ""
    reached_goal: bool = False
    rows: list[tuple] = field(default_factory=list)
    _columns: _Columns | None = field(default=None, init=False, repr=False, compare=False)

    def append(self, row: tuple) -> None:
        """Log one interval: a tuple of values in ``EPISODE_COLUMNS`` order."""
        if len(row) != len(EPISODE_COLUMNS):
            raise ValueError(f"bad row: {len(row)} values for {len(EPISODE_COLUMNS)} columns")
        self.rows.append(row)
        self._columns = None

    @property
    def columns(self) -> Mapping[str, list]:
        """Column name -> the values of every row; agent ids as ``;``-joined text."""
        if self._columns is None:
            self._columns = _Columns(self.rows)
        return self._columns

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def qis(self) -> int:
        return len(self)

    def _total(self, name: str, compute):
        """``compute(columns)``, kept with the column view until the next ``append``."""
        columns = self.columns
        totals = columns.totals
        if name not in totals:
            totals[name] = compute(columns)
        return totals[name]

    @property
    def total_prbs(self) -> int:
        return self._total("total_prbs", lambda c: int(sum(c["prbs"])))

    @property
    def failure_count(self) -> int:
        return self._total("failure_count", lambda c: int(sum(c["failed"])))

    @property
    def mean_error_norm(self) -> float:
        """Per-interval mean of ||true state - belief mean||_2."""
        return self._total("mean_error_norm", _mean_error_norm)


def _mean_error_norm(columns) -> float:
    ex = np.array(columns["true_pos"]) - np.array(columns["belief_pos"])
    ev = np.array(columns["true_vel"]) - np.array(columns["belief_vel"])
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
        columns = [record.columns[c] for c in EPISODE_COLUMNS]
        for i in range(len(record)):
            writer.writerow([_fmt(c, column[i]) for c, column in zip(EPISODE_COLUMNS, columns)])


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
