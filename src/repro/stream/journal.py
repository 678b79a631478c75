"""Durable write-ahead delta journal (``DeltaLog``).

Layout of a stream directory::

    CURRENT                         atomic pointer {"generation": g}
    segment-g00000000-000000000000.jsonl   append-only JSONL segments
    segment-g00000000-000000000042.jsonl   (generation, first seq)
    deadletter.jsonl                quarantined poison deltas (advisory)

Each journal record is one JSON line ``{"seq", "type", "payload", "prev",
"sha"}`` where ``sha = sha256(prev + canonical(seq, type, payload))`` —
a hash chain that makes any bit flip, reorder, or splice detectable.  The
first record of a generation starts the chain (``prev = ""``): generation
0 opens with a ``genesis`` record carrying the immutable stream config
(schema, protected attrs, thresholds) and the journal format ``version``;
a compacted generation opens with a ``rebase`` record (surviving state
summary) followed by ``rows`` chunks.  Each batch of deltas lands as one
``batch`` record ``{"columns", "id", "manifest"}``: the batch's columnar
form (:meth:`~repro.stream.deltas.DeltaBatch.to_columns`), canonical-encoded
once and hashed into the per-batch manifest.  Version 2 writes that form;
a version-1 journal's ``batch`` records hold a ``deltas`` list of compact
per-delta records instead, and :func:`batch_deltas` reads both, so old
journals replay and take new batches.

Durability contract: every append is flushed and ``fsync``\\ ed before the
caller proceeds, so a batch either is fully on disk or its torn tail is
detected.  Segment rotation bounds file sizes; compaction writes the whole
next generation (rebase + rows), atomically flips ``CURRENT``, then
deletes the old generation — a crash at any point leaves either generation
fully intact, and :meth:`DeltaLog.recover`'s orphan sweep removes the
loser's leftovers.

Recovery modes:

* :meth:`DeltaLog.open` — **strict**: any torn or corrupt record raises a
  typed :class:`~repro.errors.JournalError` (used by ``repro stream
  replay`` and the corruption tests);
* :meth:`DeltaLog.recover` — **crash recovery**: tolerates exactly one
  torn *final* record of the *final* segment (the kill-mid-append window)
  by truncating it, and likewise a torn final line of ``deadletter.jsonl``,
  each explicitly reported in the returned :class:`RecoveryReport`;
  corruption anywhere else still raises.  A
  recovered journal holding zero committed batches raises unless
  ``allow_empty`` (only ingestion, which is about to add batches, opts in)
  — readers never see silent partial state.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.data.io import atomic_write_json, canonical_json, fsync_dir
from repro.data.schema import Schema
from repro.data.schema_io import schema_from_dict, schema_to_dict
from repro.errors import JournalError, StreamError
from repro.stream.deltas import (
    Delta,
    DeltaBatch,
    OP_DELETE,
    OP_INSERT,
    deltas_from_records,
)

RECORD_GENESIS = "genesis"
RECORD_BATCH = "batch"
RECORD_REBASE = "rebase"
RECORD_ROWS = "rows"

CURRENT_FILE = "CURRENT"
DEADLETTER_FILE = "deadletter.jsonl"
FORMAT_VERSION = 2

#: Default byte threshold after which the active segment is rotated.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Alive rows per ``rows`` record of a rebase: the unit compaction holds
#: in memory.
ROWS_PER_CHUNK = 100_000

_SEGMENT_RE = re.compile(r"^segment-g(\d{8})-(\d{12})\.jsonl$")


def _segment_name(generation: int, first_seq: int) -> str:
    return f"segment-g{generation:08d}-{first_seq:012d}.jsonl"


def _record_sha(prev: str, seq: int, rtype: str, payload: object) -> str:
    return _encoded_sha(prev, seq, rtype, canonical_json(payload))


def _encoded_sha(prev: str, seq: int, rtype: str, payload: str) -> str:
    """:func:`_record_sha` of an already canonical-encoded ``payload``.

    The body is spliced by hand in ``canonical_json``'s key order and
    separators, so it is byte-equal to encoding the record dict.
    """
    body = f'{{"payload":{payload},"seq":{seq},"type":{json.dumps(rtype)}}}'
    return hashlib.sha256((prev + body).encode("utf-8")).hexdigest()


def batch_deltas(payload: dict) -> DeltaBatch:
    """The deltas of a ``batch`` record's payload, in either journal format."""
    if "columns" in payload:
        return DeltaBatch.from_columns(payload["columns"])
    return DeltaBatch.of(deltas_from_records(payload["deltas"]))


@dataclass(frozen=True)
class StreamConfig:
    """Immutable configuration of one stream, persisted in the genesis record."""

    schema: Schema
    protected: tuple[str, ...]
    tau_c: float = 0.1
    T: float = 1.0
    k: int = 30
    hysteresis: float = 0.0
    queue_limit: int = 64
    retry_budget: int = 2
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    compact_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.protected:
            raise StreamError("stream config needs at least one protected attr")
        if self.tau_c < 0:
            raise StreamError(f"tau_c must be >= 0, got {self.tau_c}")
        if self.T < 1:
            raise StreamError(f"T must be >= 1, got {self.T}")
        if self.k < 0:
            raise StreamError(f"k must be >= 0, got {self.k}")
        if self.hysteresis < 0:
            raise StreamError(f"hysteresis must be >= 0, got {self.hysteresis}")
        if self.queue_limit < 1:
            raise StreamError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.retry_budget < 0:
            raise StreamError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.segment_bytes < 1:
            raise StreamError(
                f"segment_bytes must be >= 1, got {self.segment_bytes}"
            )
        if self.compact_bytes is not None and self.compact_bytes < 1:
            raise StreamError(
                f"compact_bytes must be >= 1, got {self.compact_bytes}"
            )

    def to_dict(self) -> dict:
        """JSON-safe form embedded in the genesis record."""
        payload = schema_to_dict(self.schema, self.protected)
        payload.update(
            tau_c=self.tau_c,
            T=self.T,
            k=self.k,
            hysteresis=self.hysteresis,
            queue_limit=self.queue_limit,
            retry_budget=self.retry_budget,
            segment_bytes=self.segment_bytes,
            compact_bytes=self.compact_bytes,
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamConfig":
        """Inverse of :meth:`to_dict` (raises on malformed genesis payloads)."""
        try:
            schema, protected = schema_from_dict(payload)
            return cls(
                schema=schema,
                protected=tuple(protected),
                tau_c=float(payload["tau_c"]),
                T=float(payload["T"]),
                k=int(payload["k"]),
                hysteresis=float(payload["hysteresis"]),
                queue_limit=int(payload["queue_limit"]),
                retry_budget=int(payload["retry_budget"]),
                segment_bytes=int(payload["segment_bytes"]),
                compact_bytes=(
                    None
                    if payload.get("compact_bytes") is None
                    else int(payload["compact_bytes"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed stream config in genesis: {exc}") from exc


@dataclass(frozen=True)
class JournalRecord:
    """One validated record yielded by a journal scan."""

    seq: int
    type: str
    payload: dict
    sha: str


class _TornRecord(Exception):
    """The first bad record of a segment, as :func:`_checked_records` found it.

    Only a partial final line (no trailing newline — what a killed
    ``write`` leaves behind) is ``recoverable``; a record that is
    structurally complete but fails a check, or has records after it, is
    corruption.
    """

    def __init__(
        self, segment: Path, offset: int, reason: str, recoverable: bool = False
    ):
        super().__init__(
            f"torn/corrupt record in {segment.name} at byte {offset}: {reason}"
        )
        self.offset = offset
        self.recoverable = recoverable


def _checked_records(
    segment: Path, last: JournalRecord | None
) -> Iterator[JournalRecord]:
    """Yield ``segment``'s records, each checked against the one before it.

    ``last`` is the final record of the previous segment, or None when
    ``segment`` opens its generation (its head must then start the chain
    with a genesis or rebase record).  Every record must parse, match its
    sha256, link to its predecessor's sha and carry the next seq; the first
    that does not raises :class:`_TornRecord`.  The segment is read a line
    at a time, so a scan holds one record in memory, not the whole file.
    """
    offset = 0
    with open(segment, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                raise _TornRecord(
                    segment, offset,
                    "record without trailing newline (torn append)",
                    recoverable=True,
                )
            try:
                envelope = json.loads(line)
                seq = int(envelope["seq"])
                rtype = str(envelope["type"])
                payload = envelope["payload"]
                prev = str(envelope["prev"])
                sha = str(envelope["sha"])
            except (KeyError, TypeError, ValueError):
                raise _TornRecord(segment, offset, "unparsable record") from None
            head = last is None
            if sha != _record_sha(prev, seq, rtype, payload):
                fault = f"sha256 mismatch at seq {seq} (chain link broken)"
            elif head and prev != "":
                fault = f"chain head at seq {seq} has non-empty prev"
            elif head and rtype not in (RECORD_GENESIS, RECORD_REBASE):
                fault = f"generation must start with genesis/rebase, got {rtype!r}"
            elif not head and prev != last.sha:
                fault = (
                    f"chain link broken at seq {seq}: prev does not match the "
                    "preceding record's sha"
                )
            elif not head and seq != last.seq + 1:
                fault = f"sequence gap: expected seq {last.seq + 1}, got {seq}"
            else:
                fault = None
            if fault is not None:
                raise _TornRecord(segment, offset, fault)
            last = JournalRecord(seq=seq, type=rtype, payload=payload, sha=sha)
            yield last
            offset += len(line)


def _clip_torn_tail(path: Path) -> int:
    """Truncate a final line of ``path`` that has no trailing newline.

    That partial line is what a process killed mid-append leaves behind;
    a bad line with lines after it is corruption and is left for the
    reader to raise on.  Returns the bytes removed.
    """
    if not path.exists():
        return 0
    with open(path, "r+b") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return 0
        keep = data.rfind(b"\n") + 1
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())
    return len(data) - keep


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`DeltaLog.recover` had to do to reach a consistent state."""

    truncated_bytes: int = 0
    truncated_segment: str | None = None
    orphans_removed: tuple[str, ...] = ()
    n_batches: int = 0
    watermark: int = 0
    dead_letter_truncated_bytes: int = 0

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        parts = [f"{self.n_batches} batches, watermark {self.watermark}"]
        if self.truncated_bytes:
            parts.append(
                f"truncated {self.truncated_bytes} torn bytes from "
                f"{self.truncated_segment}"
            )
        if self.dead_letter_truncated_bytes:
            parts.append(
                f"truncated {self.dead_letter_truncated_bytes} torn bytes "
                f"from {DEADLETTER_FILE}"
            )
        if self.orphans_removed:
            parts.append(
                f"swept {len(self.orphans_removed)} orphan segment(s)"
            )
        return "; ".join(parts)


@dataclass
class _ScanState:
    """Metadata accumulated by a full journal scan."""

    config: StreamConfig | None = None
    next_seq: int = 0
    last_sha: str = ""
    watermark: int = 0
    n_batches: int = 0
    applied_ids: set[str] = field(default_factory=set)
    rebase_seq: int | None = None


class DeltaLog:
    """Append-only, sha256-chained, segment-rotated delta journal."""

    def __init__(
        self,
        directory: str | Path,
        config: StreamConfig,
        generation: int,
        scan: _ScanState,
        segments: list[Path],
    ):
        self.directory = Path(directory)
        self.config = config
        self.generation = generation
        self._next_seq = scan.next_seq
        self._last_sha = scan.last_sha
        self.watermark = scan.watermark
        self.n_batches = scan.n_batches
        self.applied_ids = set(scan.applied_ids)
        self.rebase_seq = scan.rebase_seq
        self._segments = segments  # ordered paths of the live generation
        self._handle = None  # lazily opened append handle

    # -- creation / opening ----------------------------------------------------
    @classmethod
    def create(cls, directory: str | Path, config: StreamConfig) -> "DeltaLog":
        """Initialise a fresh stream directory with a genesis record."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / CURRENT_FILE).exists():
            raise JournalError(
                f"stream directory {directory} is already initialised"
            )
        scan = _ScanState(config=config)
        log = cls(directory, config, generation=0, scan=scan, segments=[])
        atomic_write_json(directory / CURRENT_FILE, {"generation": 0})
        log._start_segment(first_seq=0)
        log._append_record(
            RECORD_GENESIS,
            {"config": config.to_dict(), "version": FORMAT_VERSION},
        )
        return log

    @classmethod
    def open(cls, directory: str | Path) -> "DeltaLog":
        """Strict open: raise on any torn, corrupt, or inconsistent record."""
        log, _report = cls._load(directory, strict=True, allow_empty=True)
        return log

    @classmethod
    def recover(
        cls, directory: str | Path, allow_empty: bool = False
    ) -> tuple["DeltaLog", RecoveryReport]:
        """Crash-recovery open: truncate a torn final record, sweep orphans.

        Raises :class:`~repro.errors.JournalError` when the journal holds
        zero committed batches unless ``allow_empty`` — a reader pointed at
        a stream that never committed anything must fail loudly, not
        silently produce an empty state.
        """
        return cls._load(directory, strict=False, allow_empty=allow_empty)

    @classmethod
    def _load(
        cls, directory: str | Path, strict: bool, allow_empty: bool
    ) -> tuple["DeltaLog", RecoveryReport]:
        directory = Path(directory)
        current = directory / CURRENT_FILE
        if not current.is_file():
            raise JournalError(
                f"{directory} is not a stream directory (no {CURRENT_FILE}); "
                "run `repro stream init` first"
            )
        try:
            generation = int(json.loads(current.read_text())["generation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"corrupt {CURRENT_FILE} in {directory}: {exc}") from exc

        segments, orphans = cls._segment_files(directory, generation)
        if not segments:
            raise JournalError(
                f"stream generation {generation} has no segments in {directory}"
            )
        # Orphan sweep: leftovers of a crashed compaction (either an
        # unflipped new generation or an undeleted old one) are removed so
        # no partial generation can ever be replayed.
        removed = []
        for orphan in orphans:
            if strict:
                raise JournalError(
                    f"orphan segment {orphan.name} from another generation "
                    f"(live generation is {generation}); recover() sweeps it"
                )
            orphan.unlink()
            removed.append(orphan.name)

        scan = _ScanState()
        truncated_bytes = 0
        truncated_segment: str | None = None
        last: JournalRecord | None = None  # each segment's predecessor
        for i, segment in enumerate(segments):
            try:
                for last in _checked_records(segment, last):
                    cls._fold_record(scan, last)
            except _TornRecord as torn:
                # Only the kill-mid-append shape — a partial *final* line of
                # the *final* segment — may be clipped; anything else
                # (sha mismatch, mid-file garbage, earlier segment) is
                # corruption and stays a hard error even in recovery.
                if strict or i < len(segments) - 1 or not torn.recoverable:
                    raise JournalError(str(torn)) from None
                truncated_bytes = os.path.getsize(segment) - torn.offset
                truncated_segment = segment.name
                with open(segment, "r+b") as fh:
                    fh.truncate(torn.offset)
                    fh.flush()
                    os.fsync(fh.fileno())
        if scan.config is None:
            raise JournalError(
                f"generation {generation} of {directory} holds no "
                "genesis/rebase record; the journal head is missing"
            )
        if scan.n_batches == 0 and not allow_empty:
            raise JournalError(
                f"recovered journal in {directory} holds zero committed "
                "batches; there is no stream state to read (ingest batches "
                "first, or delete the directory and re-init)"
            )
        log = cls(directory, scan.config, generation, scan, segments)
        report = RecoveryReport(
            truncated_bytes=truncated_bytes,
            truncated_segment=truncated_segment,
            orphans_removed=tuple(removed),
            n_batches=scan.n_batches,
            watermark=scan.watermark,
            dead_letter_truncated_bytes=(
                0 if strict else _clip_torn_tail(log.deadletter_path)
            ),
        )
        return log, report

    @staticmethod
    def _segment_files(
        directory: Path, generation: int
    ) -> tuple[list[Path], list[Path]]:
        """``(live segments sorted by first seq, orphan segments)``."""
        live: list[tuple[int, Path]] = []
        orphans: list[Path] = []
        for path in sorted(directory.iterdir()):
            m = _SEGMENT_RE.match(path.name)
            if not m:
                continue
            if int(m.group(1)) == generation:
                live.append((int(m.group(2)), path))
            else:
                orphans.append(path)
        live.sort()
        return [p for _seq, p in live], orphans

    @staticmethod
    def _fold_record(scan: _ScanState, record: JournalRecord) -> None:
        seq, rtype, payload = record.seq, record.type, record.payload
        if rtype == RECORD_GENESIS:
            scan.config = StreamConfig.from_dict(payload["config"])
        elif rtype == RECORD_REBASE:
            scan.config = StreamConfig.from_dict(payload["config"])
            scan.watermark = int(payload["watermark"])
            scan.n_batches = int(payload["n_batches"])
            scan.applied_ids = set(payload["applied"])
            scan.rebase_seq = seq
        elif rtype == RECORD_BATCH:
            batch_id = str(payload["id"])
            if batch_id in scan.applied_ids:
                raise JournalError(
                    f"duplicate batch id {batch_id!r} at seq {seq}: the "
                    "journal already holds this batch; replay refuses to "
                    "double-apply"
                )
            scan.applied_ids.add(batch_id)
            scan.watermark = seq
            scan.n_batches += 1
        elif rtype == RECORD_ROWS:
            if scan.rebase_seq is None:
                raise JournalError(
                    f"rows record at seq {seq} without a preceding rebase"
                )
        else:
            raise JournalError(f"unknown record type {rtype!r} at seq {seq}")
        scan.last_sha = record.sha
        scan.next_seq = seq + 1

    # -- appending ------------------------------------------------------------
    def _segment_path(self, first_seq: int) -> Path:
        return self.directory / _segment_name(self.generation, first_seq)

    def _start_segment(self, first_seq: int) -> None:
        self._close_handle()
        path = self._segment_path(first_seq)
        self._segments.append(path)
        self._handle = open(path, "ab")
        fsync_dir(path.parent)

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        """Release the append handle (the on-disk journal stays valid)."""
        self._close_handle()

    def _append_record(self, rtype: str, payload: dict) -> int:
        return self._append_encoded(rtype, canonical_json(payload))

    def _append_encoded(self, rtype: str, payload: str) -> int:
        """Append a record whose payload is already canonical-encoded.

        The envelope is spliced around it in ``canonical_json``'s key order
        and separators (byte-equal to encoding the envelope dict, which the
        reader's sha re-check relies on), so a payload is encoded once.
        """
        seq = self._next_seq
        sha = _encoded_sha(self._last_sha, seq, rtype, payload)
        line = (
            f'{{"payload":{payload},"prev":{json.dumps(self._last_sha)},'
            f'"seq":{seq},"sha":"{sha}","type":{json.dumps(rtype)}}}\n'
        )
        if self._handle is None:
            self._handle = open(self._segments[-1], "ab")
        if (
            rtype == RECORD_BATCH
            and self._handle.tell() >= self.config.segment_bytes
        ):
            self._start_segment(first_seq=seq)
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._last_sha = sha
        self._next_seq = seq + 1
        return seq

    def append_batch(self, batch_id: str, deltas: DeltaBatch | Sequence[Delta]) -> int:
        """Journal one micro-batch as one columnar record, durably.

        Builds the per-batch manifest (delta counts, content sha of the
        encoded columns, wall timestamp — the timestamp is integrity
        metadata inside the chain, never part of replayed state), appends,
        fsyncs, and returns the batch's seq.  The columns are encoded once:
        that string is hashed for the manifest and spliced into the payload.
        The watermark only advances here: readers never see a batch that is
        not fully on disk.
        """
        if batch_id in self.applied_ids:
            raise JournalError(
                f"batch id {batch_id!r} is already journalled; ingest-level "
                "dedup should have skipped it"
            )
        batch = DeltaBatch.of(deltas)
        columns = canonical_json(
            batch.to_columns([col.is_categorical for col in self.config.schema])
        )
        n_insert = int(np.count_nonzero(batch.ops == OP_INSERT))
        n_delete = int(np.count_nonzero(batch.ops == OP_DELETE))
        manifest = {
            "n_deltas": len(batch),
            "n_insert": n_insert,
            "n_delete": n_delete,
            "n_relabel": len(batch) - n_insert - n_delete,
            "sha": hashlib.sha256(columns.encode()).hexdigest(),
            "ts": time.time(),
        }
        seq = self._append_encoded(
            RECORD_BATCH,
            f'{{"columns":{columns},"id":{json.dumps(batch_id)},'
            f'"manifest":{canonical_json(manifest)}}}',
        )
        self.applied_ids.add(batch_id)
        self.watermark = seq
        self.n_batches += 1
        return seq

    def has_batch(self, batch_id: str) -> bool:
        """Whether ``batch_id`` is already journalled (dedup probe)."""
        return batch_id in self.applied_ids

    # -- reading ----------------------------------------------------------------
    def records(self) -> Iterator[JournalRecord]:
        """Stream every record of the live generation, re-validating the chain.

        The journal was already vetted at open/recover time; this second
        pass runs the same checks while feeding replay, so replay can never
        consume records an interleaved writer corrupted after open.
        """
        last: JournalRecord | None = None
        for segment in self._segments:
            try:
                for last in _checked_records(segment, last):
                    yield last
            except _TornRecord as torn:
                raise JournalError(str(torn)) from None

    def generation_bytes(self) -> int:
        """Total on-disk bytes of the live generation's segments."""
        return sum(os.path.getsize(p) for p in self._segments if p.exists())

    def segment_names(self) -> list[str]:
        """Live segment file names, in replay order."""
        return [p.name for p in self._segments]

    # -- compaction --------------------------------------------------------------
    def compact(
        self,
        row_chunks: Iterator[list[list]],
        next_row_id: int,
        n_alive: int,
        alarms: list,
        events_dropped: int,
    ) -> None:
        """Fold the journal into a fresh generation seeded with live state.

        Writes the next generation completely (rebase header + row
        chunks, fsynced), atomically flips ``CURRENT``, then deletes the
        old generation's segments.  A crash before the flip leaves the old
        generation live (the new one is swept as orphans on recover); a
        crash after it leaves the new generation live (old segments swept).
        Sequence numbers keep increasing across generations so
        replay-to-offset semantics survive compaction.

        ``row_chunks`` is read one chunk at a time, each on disk before the
        next is asked for, so compaction holds one chunk of rows in memory.
        It must yield ``⌈n_alive / ROWS_PER_CHUNK⌉`` chunks, as
        :meth:`~repro.stream.state.StreamState.export_rows` does; any other
        count raises :class:`~repro.errors.JournalError` before the flip,
        with the half-written generation removed and the old one live.
        """
        old_segments = list(self._segments)
        old_state = (self.generation, self._last_sha, self._next_seq)
        n_chunks = -(-n_alive // ROWS_PER_CHUNK)
        self._close_handle()
        self.generation += 1
        self._segments = []
        self._last_sha = ""
        try:
            self._start_segment(first_seq=self._next_seq)
            rebase_seq = self._append_record(
                RECORD_REBASE,
                {
                    "config": self.config.to_dict(),
                    "watermark": self.watermark,
                    "n_batches": self.n_batches,
                    "applied": sorted(self.applied_ids),
                    "next_row": next_row_id,
                    "n_rows": n_alive,
                    "n_chunks": n_chunks,
                    "alarms": alarms,
                    "events_dropped": events_dropped,
                },
            )
            n_written = 0
            for chunk in row_chunks:
                self._append_record(RECORD_ROWS, {"chunk": n_written, "rows": chunk})
                n_written += 1
                del chunk  # freed before the next chunk is built
            if n_written != n_chunks:
                raise JournalError(
                    f"compaction of {n_alive} live rows needs {n_chunks} row "
                    f"chunks, got {n_written}; generation {old_state[0]} "
                    "stays live"
                )
        except BaseException:
            self._close_handle()
            for path in self._segments:
                path.unlink(missing_ok=True)
            self._segments = old_segments
            self.generation, self._last_sha, self._next_seq = old_state
            raise
        self.rebase_seq = rebase_seq

        atomic_write_json(
            self.directory / CURRENT_FILE, {"generation": self.generation}
        )
        for path in old_segments:
            path.unlink()

    # -- dead letters -------------------------------------------------------------
    @property
    def deadletter_path(self) -> Path:
        """The quarantine file (plain JSONL, advisory — not chain-linked)."""
        return self.directory / DEADLETTER_FILE

    def append_dead_letter(self, entry: dict) -> None:
        """Durably append one quarantine entry."""
        with open(self.deadletter_path, "ab") as fh:
            fh.write((canonical_json(entry) + "\n").encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def dead_letters(self) -> list[dict]:
        """All quarantine entries, oldest first (latest status last per id)."""
        path = self.deadletter_path
        if not path.exists():
            return []
        entries = []
        for line in path.read_bytes().splitlines():
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except ValueError as exc:
                raise JournalError(
                    f"unparsable dead-letter record: {exc}"
                ) from exc
        return entries

    def outstanding_dead_letters(self) -> list[dict]:
        """Entries whose *latest* status is still quarantined (retry input).

        The dead-letter file is append-only: a retry appends a new entry
        under the same ``id`` with the updated status, so folding by id
        and keeping the last word gives the open quarantine set.
        """
        latest: dict[str, dict] = {}
        for entry in self.dead_letters():
            latest[str(entry["id"])] = entry
        return [
            entry
            for entry in latest.values()
            if entry.get("status") == "quarantined"
        ]
