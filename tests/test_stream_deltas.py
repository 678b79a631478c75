"""Typed stream deltas and their wire-record round trip."""

from __future__ import annotations

import pytest

from repro.errors import DeltaError
from repro.stream.deltas import (
    DeleteDelta,
    DeltaBatch,
    InsertDelta,
    RelabelDelta,
    delta_from_record,
    deltas_from_records,
)


class TestRecordRoundTrip:
    def test_insert(self):
        delta = InsertDelta(values=(0.0, 2.0, 1.5), label=1)
        record = delta.to_record()
        assert record == ["i", [0.0, 2.0, 1.5], 1]
        assert delta_from_record(record) == delta

    def test_delete(self):
        delta = DeleteDelta(row=7)
        assert delta.to_record() == ["d", 7]
        assert delta_from_record(["d", 7]) == delta

    def test_relabel(self):
        delta = RelabelDelta(row=3, label=0)
        assert delta.to_record() == ["r", 3, 0]
        assert delta_from_record(["r", 3, 0]) == delta

    def test_batch_helper_preserves_order(self):
        records = [["i", [1.0], 0], ["d", 0], ["r", 1, 1]]
        deltas = deltas_from_records(records)
        assert [d.to_record() for d in deltas] == records


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "record",
        [
            ["x", 1],                 # unknown tag
            ["i", [1.0]],             # missing label
            ["i", [1.0], 1, "extra"],  # wrong arity
            ["d"],                    # no row
            ["d", "seven"],           # non-integer row
            ["d", True],              # bool is not a row id
            ["r", 1],                 # missing label
            ["r", 1, 1.5],            # non-integer label
            "not-a-list",
            [],
        ],
    )
    def test_raises_typed(self, record):
        with pytest.raises(DeltaError):
            delta_from_record(record)

    def test_error_names_the_position(self):
        with pytest.raises(DeltaError, match="record 1"):
            deltas_from_records([["i", [1.0], 0], ["bogus"]])


class TestDeltaBatch:
    def mixed(self):
        return [
            InsertDelta(values=(1, 2, 0.25), label=1),
            DeleteDelta(row=4),
            RelabelDelta(row=0, label=0),
            InsertDelta(values=(0, 1, -3.5), label=0),
        ]

    def test_of_splits_the_deltas_into_columns(self):
        batch = DeltaBatch.of(self.mixed())
        assert len(batch) == 4
        assert batch.ops.tobytes() == b"idri"
        assert batch.rows.tolist() == [4, 0]
        assert batch.labels.tolist() == [1, 0, 0]
        assert batch.values.tolist() == [[1.0, 2.0, 0.25], [0.0, 1.0, -3.5]]
        assert not batch.scalar
        assert DeltaBatch.of(batch) is batch

    def test_of_keeps_the_source_objects(self):
        deltas = self.mixed()
        assert all(a is b for a, b in zip(DeltaBatch.of(deltas).deltas(), deltas))

    def test_columns_round_trip(self):
        batch = DeltaBatch.of(self.mixed())
        columns = batch.to_columns([True, True, False])
        assert columns == {
            "labels": [1, 0, 0],
            "ops": "idri",
            "rows": [4, 0],
            "values": [[1, 0], [2, 1], [0.25, -3.5]],
        }
        # Codes come back as ints, numeric values as floats.
        assert [type(v) for v in columns["values"][0]] == [int, int]
        assert [type(v) for v in columns["values"][2]] == [float, float]
        back = DeltaBatch.from_columns(columns)
        assert back.source is None
        assert list(back.deltas()) == self.mixed()

    def test_a_batch_without_inserts_has_one_empty_list_per_column(self):
        batch = DeltaBatch.of([DeleteDelta(row=1), RelabelDelta(row=2, label=1)])
        columns = batch.to_columns([True, False])
        assert columns["values"] == [[], []]
        assert list(DeltaBatch.from_columns(columns).deltas()) == list(batch.deltas())

    @pytest.mark.parametrize(
        "deltas",
        [
            [InsertDelta(values=(1, 0), label=True)],     # bool label
            [RelabelDelta(row=2.0, label=1)],             # float row
            [InsertDelta(values=(True, 0), label=1)],     # bool value
            [InsertDelta(values=(10**400, 0), label=1)],  # past float64
            [InsertDelta(values=(0, 1), label=1), InsertDelta(values=(0,), label=1)],
            [DeleteDelta(row=2**64)],                     # past int64
        ],
    )
    def test_odd_inputs_take_the_scalar_path(self, deltas):
        batch = DeltaBatch.of(deltas)
        assert batch.scalar
        assert list(batch.deltas()) == deltas

    def test_float_codes_are_plain(self):
        assert not DeltaBatch.of([InsertDelta(values=(1.0, 0), label=1)]).scalar

    @pytest.mark.parametrize(
        "columns",
        [
            {"ops": "ix", "rows": [], "labels": [1], "values": [[0]]},
            {"ops": "d", "rows": [], "labels": [], "values": [[]]},
            {"ops": "i", "rows": [], "labels": [], "values": [[0]]},
            {"ops": "ii", "rows": [], "labels": [0, 1], "values": [[0]]},
            {"ops": "i", "rows": [], "labels": [1]},
            {"ops": 5, "rows": [], "labels": [], "values": []},
            "not-columns",
        ],
    )
    def test_malformed_columns_raise_typed(self, columns):
        with pytest.raises(DeltaError, match="malformed columnar batch"):
            DeltaBatch.from_columns(columns)
