"""StreamService: backpressure, quarantine/retry, watermark, recovery."""

from __future__ import annotations

import pytest

from repro.data.schema import Column, Schema
from repro.errors import BackpressureError, JournalError, StreamError
from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta
from repro.stream.journal import StreamConfig, batch_deltas
from repro.stream.service import StreamService


def make_config(**overrides) -> StreamConfig:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1", "b2")),
        ]
    )
    params = dict(schema=schema, protected=("a", "b"), tau_c=0.1, k=2)
    params.update(overrides)
    return StreamConfig(**params)


def insert(a: int, b: int, label: int) -> InsertDelta:
    return InsertDelta(values=(a, b), label=label)


class TestQueueAndBackpressure:
    def test_full_queue_raises_typed(self, tmp_path):
        service = StreamService.create(tmp_path / "s", make_config(queue_limit=2))
        assert service.submit("b0", [insert(0, 0, 1)])
        assert service.submit("b1", [insert(0, 1, 1)])
        with pytest.raises(BackpressureError, match="queue is full"):
            service.submit("b2", [insert(0, 2, 1)])
        service.drain()
        assert service.submit("b2", [insert(0, 2, 1)])
        service.close()

    def test_duplicate_submit_is_idempotent(self, tmp_path):
        service = StreamService.create(tmp_path / "s", make_config())
        assert service.submit("b0", [insert(0, 0, 1)])
        assert not service.submit("b0", [insert(0, 0, 1)])  # still queued
        service.drain()
        assert not service.submit("b0", [insert(0, 0, 1)])  # journalled
        assert service.auditor.n_batches == 1
        service.close()

    def test_drain_is_fifo(self, tmp_path):
        service = StreamService.create(tmp_path / "s", make_config())
        service.submit("b0", [insert(0, 0, 1)])
        service.submit("b1", [DeleteDelta(row=0)])  # valid only after b0
        service.drain()
        assert service.auditor.n_batches == 2
        assert service.auditor.state.n_alive == 0
        service.close()


class TestQuarantine:
    def test_poison_deltas_never_reach_the_journal(self, tmp_path):
        service = StreamService.create(tmp_path / "s", make_config())
        service.ingest(
            [("b0", [insert(0, 0, 1), DeleteDelta(row=99), insert(1, 1, 0)])]
        )
        # The two good deltas applied; the poison one is dead-lettered.
        assert service.auditor.state.n_alive == 2
        (entry,) = service.log.dead_letters()
        assert entry["batch"] == "b0"
        assert entry["delta"] == ["d", 99]
        assert "unknown row" in entry["error"]
        assert entry["status"] == "quarantined"
        # Replay sees only the applied deltas: the journal holds no poison.
        for record in service.log.records():
            if record.type == "batch":
                assert DeleteDelta(row=99) not in batch_deltas(record.payload).deltas()
        service.close()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_categorical_code_is_quarantined(self, tmp_path, value):
        service = StreamService.create(tmp_path / "s", make_config())
        service.ingest(
            [("b0", [insert(0, 1, 1), InsertDelta(values=(value, 0), label=1)])]
        )
        # The valid sibling applied; the poison insert is dead-lettered.
        assert service.auditor.state.n_alive == 1
        (entry,) = service.log.dead_letters()
        assert entry["error"] == (
            f"column 'a' has code {value!r} at row 1, outside [0, 2)"
        )
        service.close()

    def test_overflowing_numeric_value_is_quarantined(self, tmp_path):
        schema = Schema(
            [
                Column("a", "categorical", ("a0", "a1")),
                Column("x", "numeric"),
            ]
        )
        config = StreamConfig(schema=schema, protected=("a",), tau_c=0.1, k=2)
        service = StreamService.create(tmp_path / "s", config)
        huge = 10**400  # a JSON integer literal no float64 can hold
        service.ingest([("b0", [InsertDelta(values=(0, huge), label=1)])])
        assert service.auditor.state.n_alive == 0
        (entry,) = service.log.dead_letters()
        assert entry["error"].startswith("column 'x' has non-finite value 1000")
        service.close()

    def test_retry_requeues_a_delta_that_became_valid(self, tmp_path):
        service = StreamService.create(tmp_path / "s", make_config())
        # Delete of row 1 arrives before row 1 exists: quarantined.
        service.ingest([("b0", [insert(0, 0, 1), DeleteDelta(row=1)])])
        assert len(service.log.outstanding_dead_letters()) == 1
        # Row 1 appears; the retry must now apply it.
        service.ingest([("b1", [insert(1, 1, 0)])])
        outcome = service.retry_dead_letters()
        assert outcome == {"requeued": 1, "dead": 0, "requarantined": 0}
        assert service.auditor.state.n_alive == 1  # row 1 deleted on retry
        assert not service.log.outstanding_dead_letters()
        service.close()

    def test_retry_budget_exhausts_to_dead(self, tmp_path):
        service = StreamService.create(
            tmp_path / "s", make_config(retry_budget=2)
        )
        service.ingest([("b0", [insert(0, 0, 1), DeleteDelta(row=50)])])
        assert service.retry_dead_letters() == {
            "requeued": 0, "dead": 0, "requarantined": 1,
        }
        assert service.retry_dead_letters() == {
            "requeued": 0, "dead": 1, "requarantined": 0,
        }
        assert not service.log.outstanding_dead_letters()
        statuses = [e["status"] for e in service.log.dead_letters()]
        assert statuses[-1] == "dead"
        service.close()


class TestWatermarkAndRecovery:
    def test_watermark_advances_only_after_apply(self, tmp_path, monkeypatch):
        points = []

        def point(site, key):
            points.append((site, key, service.auditor.watermark))

        monkeypatch.setattr("repro.stream.service.chaos_point", point)
        service = StreamService.create(tmp_path / "s", make_config())
        service.ingest([("b0", [insert(0, 0, 1)])])
        # At the chaos window the batch was journalled but the watermark
        # still points before it — readers cannot see a half-applied batch.
        assert points == [("stream.append", "b0", 0)]
        assert service.auditor.watermark == 1
        service.close()

    def test_open_replays_to_the_same_digest(self, tmp_path):
        service = StreamService.create(tmp_path / "s", make_config())
        service.ingest(
            [
                ("b0", [insert(a, b, (a + b) % 2) for a in (0, 1) for b in range(3)] * 3),
                ("b1", [DeleteDelta(row=0)]),
            ]
        )
        digest = service.auditor.digest()
        service.close()
        reopened, report = StreamService.open(tmp_path / "s")
        assert reopened.auditor.digest() == digest
        assert report.n_batches == 2
        reopened.close()

    def test_open_with_zero_batches_needs_opt_in(self, tmp_path):
        StreamService.create(tmp_path / "s", make_config()).close()
        with pytest.raises(JournalError, match="zero committed batches"):
            StreamService.open(tmp_path / "s")
        service, _report = StreamService.open(tmp_path / "s", allow_empty=True)
        service.close()


class TestCompaction:
    def test_maybe_compact_honours_threshold(self, tmp_path):
        service = StreamService.create(
            tmp_path / "s", make_config(compact_bytes=100_000)
        )
        service.ingest([("b0", [insert(0, 0, 1)])])
        assert not service.maybe_compact()
        digest = service.auditor.digest()
        service.compact()  # explicit compaction still works below threshold
        assert service.log.generation == 1
        service.close()
        reopened, _ = StreamService.open(tmp_path / "s")
        assert reopened.auditor.digest() == digest
        reopened.close()

    def test_batches_file_errors_are_typed(self, tmp_path):
        from repro.stream.service import read_batches_file

        bad = tmp_path / "batches.jsonl"
        bad.write_text('{"id": "b0"}\n')
        with pytest.raises(StreamError, match="deltas"):
            read_batches_file(bad)
        bad.write_text("not json\n")
        with pytest.raises(StreamError, match="not valid JSON"):
            read_batches_file(bad)


class TestDeadLettersAndOddInputs:
    def test_a_poisoned_batch_dead_letters_the_pinned_bytes(self, tmp_path):
        # Every kind of poison, with a float code and a bool label that are
        # valid; the expected lines were written by the per-delta service.
        schema = Schema(
            [
                Column("a", "categorical", ("a0", "a1")),
                Column("b", "categorical", ("b0", "b1", "b2")),
                Column("x", "numeric"),
            ]
        )
        config = StreamConfig(schema=schema, protected=("a", "b"), tau_c=0.1, k=2)
        service = StreamService.create(tmp_path / "s", config)
        service.ingest(
            [("b0", [InsertDelta((i % 2, i % 3, 0.5 * i), i % 2) for i in range(12)])]
        )
        huge = 10**400
        service.ingest([("b1", [
            InsertDelta((7, 0, 0.5), 1),
            InsertDelta((0, 0, float("nan")), 1),
            InsertDelta((0, 0, float("-inf")), 0),
            InsertDelta((1.5, 0, 0.0), 0),
            InsertDelta((1.0, 2, 0.0), 1),
            InsertDelta((0, 1, 2.0), 2),
            InsertDelta((0, 1), 1),
            InsertDelta((1, 1, huge), 1),
            DeleteDelta(99),
            DeleteDelta(3), DeleteDelta(3),
            RelabelDelta(3, 1),
            RelabelDelta(4, 5),
            RelabelDelta(12, 0),
            DeleteDelta(13),
            InsertDelta((1, 0, 1e308), True),
        ])])
        entry = '{"attempts":1,"batch":"b1","delta":%s,"error":"%s","id":"dl-%d","status":"quarantined"}'
        poison = [
            ('["i",[7,0,0.5],1]', "column 'a' has code 7 at row 12, outside [0, 2)"),
            ('["i",[0,0,NaN],1]', "column 'x' has non-finite value nan at row 12; features must be finite (no NaN/inf)"),
            ('["i",[0,0,-Infinity],0]', "column 'x' has non-finite value -inf at row 12; features must be finite (no NaN/inf)"),
            ('["i",[1.5,0,0.0],0]', "column 'a' has code 1.5 at row 12, outside [0, 2)"),
            ('["i",[0,1,2.0],2]', "labels must be binary 0/1; row 13 has 2"),
            ('["i",[0,1],1]', "insert for row 13 has 2 values for 3 schema columns ['a', 'b', 'x']"),
            (f'["i",[1,1,{huge}],1]', f"column 'x' has non-finite value {huge} at row 13; features must be finite (no NaN/inf)"),
            ('["d",99]', "delete targets unknown row 99; ids 0..12 have been inserted"),
            ('["d",3]', "delete targets dead row 3 (already deleted)"),
            ('["r",3,1]', "relabel targets dead row 3 (already deleted)"),
            ('["r",4,5]', "labels must be binary 0/1; row 4 has 5"),
            ('["d",13]', "delete targets unknown row 13; ids 0..12 have been inserted"),
        ]
        expected = "".join(
            entry % (delta, error, i) + "\n"
            for i, (delta, error) in enumerate(poison, start=1)
        )
        assert service.log.deadletter_path.read_text() == expected
        # The float code and the bool label applied as 1.
        assert service.auditor.state.next_row_id == 14
        assert service.auditor.state.n_alive == 13
        service.close()

    def test_open_clips_a_torn_dead_letter_tail(self, tmp_path, capsys):
        from repro.cli import EXIT_OK, main

        service = StreamService.create(tmp_path / "s", make_config())
        service.ingest(
            [("b0", [insert(0, 0, 1), DeleteDelta(row=7), DeleteDelta(row=8)])]
        )
        service.close()
        path = service.log.deadletter_path
        path.write_bytes(path.read_bytes()[:-10])
        assert main(["stream", "status", str(tmp_path / "s")]) == EXIT_OK
        assert "torn bytes from deadletter.jsonl" in capsys.readouterr().out
        reopened, report = StreamService.open(tmp_path / "s")
        assert report.dead_letter_truncated_bytes == 0  # clipped already
        assert [e["delta"] for e in reopened.log.dead_letters()] == [["d", 7]]
        reopened.ingest([("b1", [DeleteDelta(row=9)])])
        assert [e["id"] for e in reopened.log.dead_letters()] == ["dl-1", "dl-2"]
        reopened.close()

    @pytest.mark.parametrize(
        "batch",
        [
            # A float row naming a row inserted earlier in the batch.
            [InsertDelta(values=(0, 1), label=1), DeleteDelta(row=0.0)],
            # A bool code: the journal must still hold an int.
            [InsertDelta(values=(True, 2), label=1)],
        ],
        ids=["float-row", "bool-code"],
    )
    def test_odd_valid_inputs_apply_and_replay(self, tmp_path, batch):
        service = StreamService.create(tmp_path / "s", make_config())
        service.ingest([("b0", batch)])
        assert service.auditor.n_batches == 1
        live = service.auditor.digest()
        service.close()
        reopened, _report = StreamService.open(tmp_path / "s")
        assert reopened.auditor.digest() == live
        reopened.close()
