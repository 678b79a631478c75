"""StreamService: backpressure, quarantine/retry, watermark, recovery."""

from __future__ import annotations

import pytest

from repro.data.schema import Column, Schema
from repro.errors import BackpressureError, JournalError, StreamError
from repro.stream.deltas import DeleteDelta, InsertDelta
from repro.stream.journal import StreamConfig
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
                assert ["d", 99] not in record.payload["deltas"]
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
