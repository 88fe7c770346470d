"""``metrics.compute_metrics`` and the record totals, checked against numpy reductions of the columns
(the totals with the column dict unbuilt), and the record's id-column text, checked against a per-row join."""

import dataclasses
import json
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reverb.errors import InputError
from reverb.metrics import compute_metrics
from reverb.recordio import EPISODE_COLUMNS, EpisodeRecord

from oracles import compute_metrics_numpy

coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
# Ages run past the thresholds of the default config and of the aol:1..10
# sweep, and an interval may take no PRB at all, with or without a pick.
row_counts = st.fixed_dictionaries({
    "n_selected": st.integers(0, 30),
    "prbs": st.integers(0, 40) | st.just(0),
    "age_pos": st.integers(0, 25),
    "age_vel": st.integers(0, 25),
    "failed": st.integers(0, 1),
})


@st.composite
def records(draw):
    record = EpisodeRecord(scheme="AoL-REVERB")
    for qi in range(draw(st.integers(1, 12))):
        counts = draw(row_counts)
        row = dict.fromkeys(EPISODE_COLUMNS, 0.0)
        row.update(counts, qi=qi, selected=tuple(range(counts["n_selected"])), delivered=())
        for name in ("true_pos", "true_vel", "belief_pos", "belief_vel"):
            row[name] = draw(coordinate)
        record.append(tuple(row[c] for c in EPISODE_COLUMNS))
    record.reached_goal = draw(st.booleans())
    return record


def exact(value):
    """A value compared by its bits: float hex, dict items in insertion order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(exact(k), exact(v)) for k, v in value.items()]
    return value


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(records(), min_size=1, max_size=3))
def test_integer_tallies_equal_the_numpy_reductions(batch):
    got, want = compute_metrics(batch), compute_metrics_numpy(batch)
    for f in dataclasses.fields(got):
        assert exact(getattr(got, f.name)) == exact(getattr(want, f.name)), f.name
    as_json = lambda summary: json.dumps(summary.to_payload(), indent=2, sort_keys=True)  # noqa: E731
    assert as_json(got) == as_json(want)


def test_record_totals_follow_every_append():
    record = EpisodeRecord()
    row = dict.fromkeys(EPISODE_COLUMNS, 0)
    for qi, (prbs, failed, err) in enumerate([(3, 0, 0.5), (0, 1, 0.25), (7, 1, 1.0)]):
        record.append(tuple({**row, "qi": qi, "prbs": prbs, "failed": failed, "true_pos": err}[c]
                            for c in EPISODE_COLUMNS))
        totals = record.total_prbs, record.failure_count, record.mean_error_norm
        assert totals == (record.total_prbs, record.failure_count, record.mean_error_norm)
    assert totals == (10, 2, 1.75 / 3)


@settings(max_examples=200, deadline=None)
@given(record=records())
def test_record_totals_read_the_rows_not_the_column_dict(record):
    want = compute_metrics_numpy([record])

    def no_columns(record):
        raise AssertionError("the column dict was built")

    with mock.patch.object(EpisodeRecord, "columns", property(no_columns)):
        got = record.total_prbs, record.failure_count, record.mean_error_norm
    assert type(got[0]) is int and type(got[1]) is int
    assert float(got[0]) == want.mean_total_prbs
    assert got[1] / record.qis == want.failure_prob
    assert got[2].hex() == want.mrmse.hex()


# Few distinct ids, so tuples repeat, as equal values in new objects too; () is a blind round.
id_tuples = st.lists(st.sampled_from([0, 1, 3, 12]), max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.tuples(id_tuples, id_tuples), min_size=1, max_size=15))
def test_id_columns_join_each_row_as_the_per_row_oracle(ids):
    record = EpisodeRecord()
    row = dict.fromkeys(EPISODE_COLUMNS, 0)
    for n, (selected, delivered) in enumerate(ids):
        record.append(tuple({**row, "selected": selected, "delivered": delivered}[c] for c in EPISODE_COLUMNS))
        if n == len(ids) // 2:
            record.columns["selected"]   # read, then appended to: the next read covers every row
    for column, index in (("selected", 0), ("delivered", 1)):
        want = [";".join(map(str, pair[index])) for pair in ids]
        assert record.columns[column] == want
        assert all(type(text) is str for text in record.columns[column])


def test_records_without_intervals_are_rejected():
    with pytest.raises(InputError, match="^need at least one logged interval$"):
        compute_metrics([EpisodeRecord(), EpisodeRecord()])


def test_a_record_without_intervals_beside_others_is_named():
    """An empty record among non-empty ones fails, naming it, instead of a NaN ``mrmse`` and a warning."""
    row = dict.fromkeys(EPISODE_COLUMNS, 0)
    logged = EpisodeRecord(scheme="AoL-REVERB")
    logged.append(tuple({**row, "selected": (), "delivered": ()}[c] for c in EPISODE_COLUMNS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"^episode record 1 \('CB-Greedy'\) has no logged interval$"):
            compute_metrics([logged, EpisodeRecord(scheme="CB-Greedy"), logged])
        assert compute_metrics([logged, logged]).mrmse == 0.0
