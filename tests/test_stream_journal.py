"""DeltaLog durability: sha chain, rotation, compaction, recovery edges.

The satellite-3 corruption edges each get a test: truncated tail record,
corrupt sha-chain link, duplicate batch id on replay, and recovery with
zero completed batches — every one surfaces as a typed
:class:`~repro.errors.StreamError` subclass, never as silent partial state.
"""

from __future__ import annotations

import json

import pytest

from repro.data.schema import Column, Schema
from repro.errors import JournalError, StreamError
from repro.stream.journal import (
    CURRENT_FILE,
    DeltaLog,
    StreamConfig,
    _SEGMENT_RE,
)


@pytest.fixture
def config() -> StreamConfig:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1", "b2")),
        ]
    )
    return StreamConfig(schema=schema, protected=("a", "b"), k=2)


def batch(i: int) -> list[list]:
    return [["i", [i % 2, i % 3], i % 2]]


def fill(log: DeltaLog, n: int, start: int = 0) -> None:
    for i in range(start, start + n):
        log.append_batch(f"b{i}", batch(i))


def segments(directory) -> list:
    return sorted(p for p in directory.iterdir() if _SEGMENT_RE.match(p.name))


class TestAppendAndScan:
    def test_create_then_open_round_trips_config(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 3)
        log.close()
        reopened = DeltaLog.open(tmp_path / "s")
        assert reopened.config == config
        assert reopened.n_batches == 3
        assert reopened.watermark == 3  # genesis is seq 0
        assert reopened.has_batch("b1")
        assert not reopened.has_batch("b9")

    def test_create_refuses_existing_directory(self, tmp_path, config):
        DeltaLog.create(tmp_path / "s", config).close()
        with pytest.raises(JournalError, match="already initialised"):
            DeltaLog.create(tmp_path / "s", config)

    def test_rotation_bounds_segment_sizes(self, tmp_path, config):
        small = StreamConfig(
            schema=config.schema, protected=config.protected, segment_bytes=600
        )
        log = DeltaLog.create(tmp_path / "s", small)
        fill(log, 12)
        log.close()
        files = segments(tmp_path / "s")
        assert len(files) > 1
        # Re-open must replay across the rotation boundary seamlessly.
        assert DeltaLog.open(tmp_path / "s").n_batches == 12

    def test_every_new_segment_is_fsynced_into_its_directory(
        self, tmp_path, config, dir_fsynced
    ):
        small = StreamConfig(
            schema=config.schema, protected=config.protected, segment_bytes=600
        )
        log = DeltaLog.create(tmp_path / "s", small)
        fill(log, 12)
        log.close()
        files = segments(tmp_path / "s")
        assert len(files) > 1
        assert all(dir_fsynced(path) for path in files)

    def test_records_stream_in_seq_order(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 4)
        seqs = [r.seq for r in log.records()]
        assert seqs == [0, 1, 2, 3, 4]
        assert [r.type for r in log.records()][0] == "genesis"


class TestRecoveryEdges:
    """The four satellite edges: each is typed, none is silent."""

    def test_truncated_tail_record_strict_raises_recover_clips(
        self, tmp_path, config
    ):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 3)
        log.close()
        last = segments(tmp_path / "s")[-1]
        data = last.read_bytes()
        last.write_bytes(data[:-20])  # tear the final record mid-line
        with pytest.raises(JournalError, match="torn"):
            DeltaLog.open(tmp_path / "s")
        recovered, report = DeltaLog.recover(tmp_path / "s")
        assert report.truncated_bytes > 0
        assert report.truncated_segment == last.name
        assert recovered.n_batches == 2  # the torn batch is gone, reported
        assert not recovered.has_batch("b2")

    def test_corrupt_chain_link_raises_even_in_recover(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 3)
        log.close()
        seg = segments(tmp_path / "s")[0]
        lines = seg.read_bytes().splitlines()
        # Flip a payload byte of a *middle* record: the sha no longer matches.
        doctored = json.loads(lines[1])
        doctored["payload"]["id"] = "evil"
        lines[1] = json.dumps(doctored, sort_keys=True, separators=(",", ":")).encode()
        seg.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(JournalError, match="sha256"):
            DeltaLog.open(tmp_path / "s")
        # Mid-file corruption is not a recoverable tear.
        with pytest.raises(JournalError, match="sha256"):
            DeltaLog.recover(tmp_path / "s")

    def test_duplicate_batch_id_on_replay_raises(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 2)
        log.close()
        # Forge a duplicate of batch b1 with a *valid* chain continuation:
        # only the id-dedup guard can catch it.
        seg = segments(tmp_path / "s")[-1]
        lines = seg.read_bytes().splitlines()
        prev_env = json.loads(lines[-1])
        from repro.stream.journal import _record_sha

        payload = {"id": "b1", "deltas": batch(9), "manifest": {}}
        seq = prev_env["seq"] + 1
        sha = _record_sha(prev_env["sha"], seq, "batch", payload)
        forged = {
            "payload": payload, "prev": prev_env["sha"], "seq": seq,
            "sha": sha, "type": "batch",
        }
        with open(seg, "ab") as fh:
            fh.write(
                (json.dumps(forged, sort_keys=True, separators=(",", ":")) + "\n").encode()
            )
        with pytest.raises(JournalError, match="duplicate batch id 'b1'"):
            DeltaLog.recover(tmp_path / "s")

    def test_zero_completed_batches_raises_unless_opted_in(
        self, tmp_path, config
    ):
        DeltaLog.create(tmp_path / "s", config).close()
        with pytest.raises(JournalError, match="zero committed batches"):
            DeltaLog.recover(tmp_path / "s")
        log, report = DeltaLog.recover(tmp_path / "s", allow_empty=True)
        assert report.n_batches == 0
        assert log.n_batches == 0

    def test_missing_current_pointer_is_typed(self, tmp_path):
        with pytest.raises(JournalError, match="not a stream directory"):
            DeltaLog.recover(tmp_path / "nowhere")

    def test_append_rejects_duplicate_batch_id(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 1)
        with pytest.raises(JournalError, match="already journalled"):
            log.append_batch("b0", batch(0))

    def test_all_edges_are_stream_errors(self, tmp_path, config):
        DeltaLog.create(tmp_path / "s", config).close()
        with pytest.raises(StreamError):
            DeltaLog.recover(tmp_path / "s")


class TestCompaction:
    def test_generation_flip_and_seq_continuity(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 5)
        watermark = log.watermark
        log.compact(
            iter([[[0, [0, 0], 1]]]), next_row_id=5, n_alive=1,
            alarms=[], events_dropped=0,
        )
        assert log.generation == 1
        # Seqs continue past the old generation; batch appends keep going.
        fill(log, 2, start=5)
        assert log.watermark > watermark
        log.close()
        current = json.loads((tmp_path / "s" / CURRENT_FILE).read_text())
        assert current["generation"] == 1
        assert all(
            _SEGMENT_RE.match(p.name).group(1) == "00000001"
            for p in segments(tmp_path / "s")
        )
        reopened = DeltaLog.open(tmp_path / "s")
        assert reopened.n_batches == 7
        assert reopened.rebase_seq is not None

    def test_orphan_sweep_after_simulated_compaction_crash(
        self, tmp_path, config
    ):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 3)
        log.close()
        # A compaction that died before the CURRENT flip leaves new-gen
        # segments on disk while CURRENT still points at generation 0.
        stray = tmp_path / "s" / "segment-g00000001-000000000099.jsonl"
        stray.write_text('{"half": "written"\n')
        with pytest.raises(JournalError, match="orphan"):
            DeltaLog.open(tmp_path / "s")
        recovered, report = DeltaLog.recover(tmp_path / "s")
        assert report.orphans_removed == (stray.name,)
        assert not stray.exists()
        assert recovered.n_batches == 3


class TestDeadLetters:
    def test_round_trip_and_outstanding_fold(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        log.append_dead_letter(
            {"id": "dl-1", "batch": "b0", "delta": ["d", 9],
             "error": "unknown row", "attempts": 1, "status": "quarantined"}
        )
        log.append_dead_letter(
            {"id": "dl-2", "batch": "b0", "delta": ["d", 8],
             "error": "unknown row", "attempts": 1, "status": "quarantined"}
        )
        log.append_dead_letter(
            {"id": "dl-1", "batch": "b0", "delta": ["d", 9],
             "error": "unknown row", "attempts": 1, "status": "requeued"}
        )
        assert len(log.dead_letters()) == 3
        outstanding = log.outstanding_dead_letters()
        assert [e["id"] for e in outstanding] == ["dl-2"]
