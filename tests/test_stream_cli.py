"""``repro stream`` subcommands: init, ingest, status, replay, alarms, compact."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import EXIT_OK, EXIT_REPRO_ERROR, main
from repro.data.schema import Column, Schema
from repro.data.schema_io import schema_to_dict
from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta
from repro.stream.engine import StreamAuditor
from repro.stream.journal import DeltaLog
from repro.stream.service import StreamService


@pytest.fixture
def schema_path(tmp_path):
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1", "b2")),
        ]
    )
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_dict(schema, ("a", "b"))))
    return path


def write_batches(path, batches) -> None:
    with open(path, "w") as fh:
        for batch_id, deltas in batches:
            fh.write(json.dumps({"id": batch_id, "deltas": deltas}) + "\n")


def skew_deltas() -> list[list]:
    deltas = [["i", [0, 0], 1] for _ in range(8)]
    for a in (0, 1):
        for b in (1, 2):
            deltas.extend([["i", [a, b], 0], ["i", [a, b], 1]] * 2)
    deltas.extend([["i", [1, 0], 0], ["i", [1, 0], 1]] * 2)
    return deltas


@pytest.fixture
def stream_dir(tmp_path, schema_path):
    directory = tmp_path / "stream"
    rc = main(
        [
            "stream", "init", str(directory),
            "--schema", str(schema_path), "--tau-c", "0.1", "--k", "2",
        ]
    )
    assert rc == EXIT_OK
    return directory


class TestInitAndIngest:
    def test_init_prints_config(self, tmp_path, schema_path, capsys):
        rc = main(
            [
                "stream", "init", str(tmp_path / "fresh"),
                "--schema", str(schema_path), "--tau-c", "0.1",
            ]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "initialised stream" in out
        assert "tau_c=0.1" in out

    def test_init_refuses_reinit(self, stream_dir, schema_path, capsys):
        rc = main(
            ["stream", "init", str(stream_dir), "--schema", str(schema_path)]
        )
        assert rc == EXIT_REPRO_ERROR
        assert "already initialised" in capsys.readouterr().err

    def test_ingest_applies_and_dedups(self, stream_dir, tmp_path, capsys):
        batches = tmp_path / "batches.jsonl"
        write_batches(batches, [("b0", skew_deltas()), ("b1", [["d", 0]])])
        rc = main(["stream", "ingest", str(stream_dir), str(batches)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "applied 2 of 2 batches (0 duplicate)" in out
        assert "digest " in out
        # Re-ingesting the same file is a no-op: both batches are duplicates.
        rc = main(["stream", "ingest", str(stream_dir), str(batches)])
        assert rc == EXIT_OK
        assert "applied 0 of 2 batches (2 duplicate)" in capsys.readouterr().out

    def test_ingest_reports_dead_letters(self, stream_dir, tmp_path, capsys):
        batches = tmp_path / "batches.jsonl"
        write_batches(batches, [("b0", [["i", [0, 0], 1], ["d", 42]])])
        rc = main(["stream", "ingest", str(stream_dir), str(batches)])
        assert rc == EXIT_OK
        assert "dead-letter entries" in capsys.readouterr().out

    def test_bad_batches_file_exits_2(self, stream_dir, tmp_path, capsys):
        batches = tmp_path / "batches.jsonl"
        batches.write_text("not json\n")
        rc = main(["stream", "ingest", str(stream_dir), str(batches)])
        assert rc == EXIT_REPRO_ERROR
        assert "batches.jsonl:1" in capsys.readouterr().err


class TestInspection:
    @pytest.fixture
    def ingested(self, stream_dir, tmp_path):
        batches = tmp_path / "batches.jsonl"
        write_batches(batches, [("b0", skew_deltas()), ("b1", [["d", 0]])])
        assert main(["stream", "ingest", str(stream_dir), str(batches)]) == EXIT_OK
        return stream_dir

    def test_status_on_empty_stream_exits_2(self, stream_dir, capsys):
        rc = main(["stream", "status", str(stream_dir)])
        assert rc == EXIT_REPRO_ERROR
        assert "zero committed batches" in capsys.readouterr().err

    def test_status_table(self, ingested, capsys):
        capsys.readouterr()
        assert main(["stream", "status", str(ingested)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "stream status" in out
        assert "watermark" in out and "n_alive" in out
        assert "digest " in out

    def test_status_json_is_byte_stable_canonical_json(self, ingested, capsysbinary):
        from repro.serve.protocol import canonical_json_bytes
        from repro.stream.service import StreamService

        assert main(["stream", "status", str(ingested), "--json"]) == EXIT_OK
        first = capsysbinary.readouterr().out
        assert main(["stream", "status", str(ingested), "--json"]) == EXIT_OK
        assert capsysbinary.readouterr().out == first
        # The bytes are exactly the canonical encoding of service.status().
        service, __ = StreamService.open(ingested)
        expected = canonical_json_bytes(service.status())
        service.close()
        assert first == expected
        payload = json.loads(first)
        assert list(payload) == sorted(payload)  # key order pinned
        assert payload["watermark"] == 2

    def test_replay_is_deterministic(self, ingested, capsys):
        capsys.readouterr()
        assert main(["stream", "replay", str(ingested)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["stream", "replay", str(ingested)]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert "streamed Implicit Biased Set" in first
        assert "active drift alarms" in first

    def test_replay_to_seq_shows_prefix(self, ingested, capsys):
        capsys.readouterr()
        assert main(["stream", "replay", str(ingested), "--to-seq", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "watermark 1, 1 batches" in out

    def test_alarms_with_events(self, ingested, capsys):
        capsys.readouterr()
        assert main(["stream", "alarms", str(ingested), "--events"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "active drift alarms" in out
        assert "alarm events since the compaction horizon" in out

    def test_compact_preserves_replay_output(self, ingested, capsys):
        capsys.readouterr()
        assert main(["stream", "replay", str(ingested)]) == EXIT_OK
        before = capsys.readouterr().out
        assert main(["stream", "compact", str(ingested)]) == EXIT_OK
        assert "compacted generation 0 -> 1" in capsys.readouterr().out
        assert main(["stream", "replay", str(ingested)]) == EXIT_OK
        assert capsys.readouterr().out == before


#: A stream written by the format-1 (per-delta record) journal: generation
#: 1 opens with a compaction rebase and its one rows chunk, then holds two
#: per-delta batch records (one batch quarantined a delete of a dead row;
#: the other inserts, relabels twice and deletes one row), and
#: deadletter.jsonl holds the quarantines from before and after the rebase.
V1_STREAM = Path(__file__).parent / "fixtures" / "stream_v1"
#: Its digest, as the format-1 code replayed it.
V1_DIGEST = "9d91384564abd1fba720bce021ade47e8a4fd03806a9b454977924a194b8329c"


class TestFormat1Journal:
    def test_replays_to_its_digest_and_takes_columnar_batches(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "stream_v1"
        shutil.copytree(V1_STREAM, directory)
        batches = [r for r in DeltaLog.open(directory).records() if r.type == "batch"]
        assert [sorted(r.payload) for r in batches] == [["deltas", "id", "manifest"]] * 2
        assert main(["stream", "status", str(directory)]) == EXIT_OK
        assert f"digest {V1_DIGEST}\n" in capsys.readouterr().out

        service, _report = StreamService.open(directory)
        assert service.auditor.digest() == V1_DIGEST
        service.ingest([("b4", [
            InsertDelta(values=(1, 0, 0.5), label=1), RelabelDelta(row=2, label=0),
            DeleteDelta(row=4), DeleteDelta(row=1),  # row 1 is dead: quarantined
        ])])
        live = service.auditor.digest()
        assert live != V1_DIGEST
        service.close()

        log = DeltaLog.open(directory)
        last = [r for r in log.records() if r.type == "batch"][-1]
        assert sorted(last.payload) == ["columns", "id", "manifest"]
        assert last.payload["columns"]["ops"] == "ird"
        assert StreamAuditor.from_journal(log).digest() == live
        fixture_letters = (V1_STREAM / "deadletter.jsonl").read_bytes()
        letters = (directory / "deadletter.jsonl").read_bytes()
        assert letters.startswith(fixture_letters)
        assert letters[len(fixture_letters):].count(b"\n") == 1
