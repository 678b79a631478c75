"""DeltaLog durability: sha chain, rotation, compaction, recovery edges.

The satellite-3 corruption edges each get a test: truncated tail record,
corrupt sha-chain link, duplicate batch id on replay, and recovery with
zero completed batches — every one surfaces as a typed
:class:`~repro.errors.StreamError` subclass, never as silent partial state.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.data.schema import Column, Schema
from repro.data.io import canonical_json
from repro.errors import JournalError, StreamError
from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta
from repro.stream.journal import (
    CURRENT_FILE,
    DeltaLog,
    StreamConfig,
    _SEGMENT_RE,
    batch_deltas,
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


def batch(i: int) -> list[InsertDelta]:
    return [InsertDelta(values=(i % 2, i % 3), label=i % 2)]


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

        payload = {"id": "b1", "deltas": [d.to_record() for d in batch(9)], "manifest": {}}
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

    def test_records_rechecks_a_record_altered_after_open(self, tmp_path, config):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 3)
        log.close()
        opened = DeltaLog.open(tmp_path / "s")
        seg = segments(tmp_path / "s")[0]
        lines = seg.read_bytes().splitlines()
        doctored = json.loads(lines[2])
        doctored["payload"]["id"] = "evil"
        lines[2] = json.dumps(doctored, sort_keys=True, separators=(",", ":")).encode()
        seg.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(JournalError, match="sha256 mismatch at seq 2") as replay:
            list(opened.records())
        # Replay and open run the one record checker: the same message.
        with pytest.raises(JournalError) as reopen:
            DeltaLog.open(tmp_path / "s")
        assert str(replay.value) == str(reopen.value)

    def test_records_rejects_a_segment_head_not_linked_to_the_last_segment(
        self, tmp_path, config
    ):
        from repro.stream.journal import _record_sha

        small = StreamConfig(
            schema=config.schema, protected=config.protected, segment_bytes=600
        )
        log = DeltaLog.create(tmp_path / "s", small)
        fill(log, 12)
        log.close()
        opened = DeltaLog.open(tmp_path / "s")
        second = segments(tmp_path / "s")[1]
        lines = second.read_bytes().splitlines()
        # A head with a valid sha of its own that links to a foreign record.
        head = json.loads(lines[0])
        head["prev"] = "0" * 64
        head["sha"] = _record_sha(
            head["prev"], head["seq"], head["type"], head["payload"]
        )
        lines[0] = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
        second.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(
            JournalError,
            match=f"{second.name} at byte 0: chain link broken at seq {head['seq']}",
        ):
            list(opened.records())

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

    def test_current_flip_is_durable_before_old_segments_are_unlinked(
        self, tmp_path, config, monkeypatch
    ):
        """Power-loss order of compaction: the directory fsync that makes the
        ``CURRENT`` flip durable precedes the first unlink of an old
        segment, so a power cut cannot keep the unlinks yet lose the flip
        (which would leave a live generation with no segments)."""
        from repro.data import io as data_io
        from repro.stream import journal as journal_mod

        directory = tmp_path / "s"
        log = DeltaLog.create(directory, config)
        fill(log, 3)
        events: list[tuple[str, object]] = []
        real_fsync_dir, real_unlink = data_io.fsync_dir, Path.unlink

        def recording_fsync_dir(path) -> None:
            real_fsync_dir(path)
            current = json.loads((directory / CURRENT_FILE).read_text())
            events.append(("fsync_dir", current["generation"]))

        def recording_unlink(path, *args, **kwargs) -> None:
            if _SEGMENT_RE.match(path.name):
                events.append(("unlink", path.name))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(data_io, "fsync_dir", recording_fsync_dir)
        monkeypatch.setattr(journal_mod, "fsync_dir", recording_fsync_dir)
        monkeypatch.setattr(Path, "unlink", recording_unlink)
        log.compact(
            iter([[[0, [0, 0], 1]]]), next_row_id=3, n_alive=1,
            alarms=[], events_dropped=0,
        )
        log.close()
        unlinks = [i for i, (kind, __) in enumerate(events) if kind == "unlink"]
        flips = [i for i, event in enumerate(events) if event == ("fsync_dir", 1)]
        assert unlinks, "compaction must unlink the old generation's segments"
        assert flips, "the CURRENT flip must be followed by a directory fsync"
        assert flips[0] < unlinks[0], events

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


    def test_each_row_chunk_is_on_disk_before_the_next_is_asked_for(
        self, tmp_path, config, monkeypatch
    ):
        from repro.stream import journal as journal_mod

        monkeypatch.setattr(journal_mod, "ROWS_PER_CHUNK", 1)
        directory = tmp_path / "s"
        log = DeltaLog.create(directory, config)
        fill(log, 3)
        on_disk_when_asked: list[list[int]] = []

        def rows_on_disk() -> list[int]:
            return [
                envelope["payload"]["chunk"]
                for path in segments(directory)
                if _SEGMENT_RE.match(path.name).group(1) == "00000001"
                for envelope in map(json.loads, path.read_bytes().splitlines())
                if envelope["type"] == "rows"
            ]

        def chunks():
            for i in range(3):
                on_disk_when_asked.append(rows_on_disk())
                yield [[i, [i % 2, i % 3], 1]]

        log.compact(
            chunks(), next_row_id=3, n_alive=3, alarms=[], events_dropped=0
        )
        assert on_disk_when_asked == [[], [0], [0, 1]]
        log.close()
        (rebase,) = [
            r for r in DeltaLog.open(directory).records() if r.type == "rebase"
        ]
        assert rebase.payload["n_chunks"] == 3

    def test_a_short_row_iterator_leaves_the_old_generation_live(
        self, tmp_path, config, monkeypatch
    ):
        from repro.stream import journal as journal_mod

        monkeypatch.setattr(journal_mod, "ROWS_PER_CHUNK", 1)
        directory = tmp_path / "s"
        log = DeltaLog.create(directory, config)
        fill(log, 3)
        before = sorted(p.name for p in segments(directory))
        with pytest.raises(JournalError, match="needs 3 row chunks, got 2"):
            log.compact(
                iter([[[0, [0, 0], 1]], [[1, [1, 1], 0]]]), next_row_id=3,
                n_alive=3, alarms=[], events_dropped=0,
            )
        current = json.loads((directory / CURRENT_FILE).read_text())
        assert current["generation"] == 0
        assert sorted(p.name for p in segments(directory)) == before
        # The log object still appends to the live generation.
        assert log.generation == 0
        fill(log, 1, start=3)
        log.close()
        reopened = DeltaLog.open(directory)  # strict: no orphan left behind
        assert reopened.n_batches == 4
        assert reopened.rebase_seq is None


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

    def dead_lettered(self, tmp_path, config, n=3):
        log = DeltaLog.create(tmp_path / "s", config)
        fill(log, 1)
        for i in range(n):
            log.append_dead_letter(
                {"id": f"dl-{i}", "batch": "b0", "delta": ["d", 9],
                 "error": "unknown row", "attempts": 1, "status": "quarantined"}
            )
        log.close()
        return log.deadletter_path

    def test_recover_clips_a_torn_dead_letter_tail(self, tmp_path, config):
        path = self.dead_lettered(tmp_path, config)
        data = path.read_bytes()
        path.write_bytes(data[:-10])  # a kill mid-append of the last entry
        last_line = len(data.splitlines(keepends=True)[-1])
        log, report = DeltaLog.recover(tmp_path / "s")
        assert report.dead_letter_truncated_bytes == last_line - 10
        assert (
            f"truncated {last_line - 10} torn bytes from deadletter.jsonl"
            in report.describe()
        )
        assert [e["id"] for e in log.dead_letters()] == ["dl-0", "dl-1"]
        assert path.read_bytes().endswith(b"\n")
        log.close()

    def test_strict_open_leaves_a_torn_dead_letter_tail(self, tmp_path, config):
        path = self.dead_lettered(tmp_path, config)
        torn = path.read_bytes()[:-10]
        path.write_bytes(torn)
        log = DeltaLog.open(tmp_path / "s")
        with pytest.raises(JournalError, match="unparsable dead-letter record"):
            log.dead_letters()
        assert path.read_bytes() == torn

    def test_a_bad_dead_letter_line_before_others_still_raises(
        self, tmp_path, config
    ):
        path = self.dead_lettered(tmp_path, config)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:20] + b"\n"
        path.write_bytes(b"".join(lines))
        log, report = DeltaLog.recover(tmp_path / "s")
        assert report.dead_letter_truncated_bytes == 0
        with pytest.raises(JournalError, match="unparsable dead-letter record"):
            log.dead_letters()
        log.close()


class TestColumnarRecord:
    def test_new_journals_are_version_2(self, tmp_path, config):
        DeltaLog.create(tmp_path / "s", config).close()
        (genesis,) = DeltaLog.open(tmp_path / "s").records()
        assert genesis.payload["version"] == 2

    def test_a_batch_is_one_columnar_record_encoded_canonically(
        self, tmp_path, config
    ):
        log = DeltaLog.create(tmp_path / "s", config)
        deltas = [
            InsertDelta(values=(1, 2), label=1),
            DeleteDelta(row=0),
            InsertDelta(values=(0.0, 1), label=0),
            RelabelDelta(row=1, label=0),
        ]
        batch_id = "bé中"  # escaped as \uXXXX by the encoder
        log.append_batch(batch_id, deltas)
        log.close()
        line = segments(tmp_path / "s")[0].read_bytes().splitlines()[-1]
        envelope = json.loads(line)
        payload = envelope["payload"]
        assert sorted(payload) == ["columns", "id", "manifest"]
        assert payload["id"] == batch_id
        assert payload["columns"] == {
            "labels": [1, 0, 0], "ops": "idir", "rows": [0, 1],
            "values": [[1, 0], [2, 1]],
        }
        manifest = payload["manifest"]
        assert (manifest["n_deltas"], manifest["n_insert"]) == (4, 2)
        assert (manifest["n_delete"], manifest["n_relabel"]) == (1, 1)
        # Encoded once and spliced: byte-equal to encoding the dicts.
        assert line.decode("ascii") == canonical_json(envelope)
        assert manifest["sha"] == hashlib.sha256(
            canonical_json(payload["columns"]).encode()
        ).hexdigest()
        (record,) = [r for r in DeltaLog.open(tmp_path / "s").records() if r.type == "batch"]
        assert list(batch_deltas(record.payload).deltas()) == deltas

    def test_a_version_1_batch_record_still_reads(self, tmp_path, config):
        deltas = [InsertDelta(values=(1, 2), label=1), DeleteDelta(row=0)]
        payload = {"id": "b0", "deltas": [d.to_record() for d in deltas]}
        assert list(batch_deltas(payload).deltas()) == deltas
