"""Incremental IBS auditor: dirty-region re-scoring over a live stream.

The :class:`StreamAuditor` keeps one :class:`~repro.core.hierarchy.Hierarchy`
current across micro-batches of row edits instead of rebuilding it per
audit.  Applying a batch is O(deltas), independent of the total row count:

1. the batch (a :class:`~repro.stream.deltas.DeltaBatch`) is written into
   the :class:`~repro.stream.state.StreamState` row store by array writes,
   and its leaf-granular count change is one ``bincount`` of the touched
   rows' count slots after the batch minus one of their slots before it;
2. one :meth:`~repro.core.hierarchy.Hierarchy.apply_count_delta` call
   folds the batch's delta into the hierarchy's count cube in place;
3. the **dirty-region tracker** finds the cells whose score the batch can
   affect: a cell of a level-``d`` node is dirty when some changed leaf
   cell agrees with it on all but at most ``hamming_budget(T, d)`` of its
   fixed axes (the neighbourhood relation is symmetric, so these are the
   changed projections and every cell that counts one as a neighbour).
   This is one pass over a boolean count cube: the changed leaf cells are
   marked and :meth:`~repro.core.hierarchy.Hierarchy.fill_cube` ORs them
   into the ALL slots, marking every projection of a changed cell; each
   of ``hamming_budget(T, D)`` growth rounds then lets a cell take the
   mark of any cell that frees one of its fixed axes.  The marked cells
   bar the root, sorted stably by node rank (nodes bottom-up, cells in C
   order, which is sorted coordinate order), are scored in one call of
   the vectorized engine's scoring path
   (:func:`~repro.core.ibs.score_cube_cells`) where ``|r| > k``; a dirty
   cell with ``|r| ≤ k`` observes ``None``.

The resulting report set — and its ordering — is pinned byte-identical to
a from-scratch ``identify_ibs`` over the materialised data by a
hypothesis property (``tests/test_properties_stream.py``).  Alarm state is
delegated to the :class:`~repro.stream.monitor.DriftMonitor`.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.core.ibs import (
    RegionReport,
    lattice_biased_reports,
    # Not called here, but layer tracers wrap it under this module's name
    # (bench/layers.py), so it stays bound.
    region_report,
    report_sort_key,
    score_cube_cells,
)
from repro.core.neighbors import hamming_budget
from repro.core.pattern import Pattern
from repro.data.io import canonical_json
from repro.errors import DeltaError, JournalError, StreamError
from repro.obs import trace as obs
from repro.stream.deltas import (
    Delta,
    DeltaBatch,
    OP_DELETE,
    OP_INSERT,
    OP_RELABEL,
)
from repro.stream.journal import (
    DeltaLog,
    RECORD_BATCH,
    RECORD_GENESIS,
    RECORD_REBASE,
    RECORD_ROWS,
    StreamConfig,
    batch_deltas,
)
from repro.stream.monitor import AlarmEvent, DriftMonitor
from repro.stream.state import StreamState


class StreamAuditor:
    """Incrementally maintained IBS state over a delta stream."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self.state = StreamState(config.schema, config.protected)
        self.hierarchy = Hierarchy(self.state.materialize())
        self.monitor = DriftMonitor(config.tau_c, config.hysteresis)
        #: pattern -> current RegionReport for every biased region.
        self._biased: dict[Pattern, RegionReport] = {}
        #: Count-cube cell -> its region's Pattern, each built once.  The
        #: cube's shape depends only on the config, so rebase rebuilds of
        #: the hierarchy keep it valid.
        self._patterns: dict[int, Pattern] = {}
        self.applied_ids: set[str] = set()
        self.watermark = 0
        self.n_batches = 0

    # -- validation -------------------------------------------------------------
    def validate_batch(
        self, deltas: DeltaBatch | Sequence[Delta]
    ) -> tuple[DeltaBatch, list[tuple[Delta, DeltaError]]]:
        """Split a batch into appliable deltas and poison ones, mutating nothing.

        Delegates to :meth:`StreamState.validate_batch`, the stream's one
        delta validator.
        """
        return self.state.validate_batch(deltas)

    # -- applying ---------------------------------------------------------------
    def apply_batch(
        self, seq: int, batch_id: str, deltas: DeltaBatch | Sequence[Delta]
    ) -> list[AlarmEvent]:
        """Apply one journalled batch: state, counts, dirty re-score, alarms.

        ``deltas`` must already have passed :meth:`validate_batch` (the
        journal only ever holds valid deltas); a delta that does not apply
        raises its typed :class:`~repro.errors.DeltaError` before anything
        is written, which on replay means a corrupted journal.
        """
        if batch_id in self.applied_ids:
            raise JournalError(
                f"batch id {batch_id!r} applied twice (seq {seq}); the "
                "journal is corrupt"
            )
        batch = DeltaBatch.of(deltas)
        with obs.span("stream.apply_batch", id=batch_id, n=len(batch)):
            self.state.check_batch(batch)
            changed, dpos, dneg = self._write(batch)
            if changed.size:
                self.hierarchy.apply_count_delta(Pattern(), dpos, dneg)
            observations = self._rescore(changed)
            events = self.monitor.observe(seq, observations)
            self.applied_ids.add(batch_id)
            self.watermark = seq
            self.n_batches += 1
            obs.count("stream.deltas_applied", len(batch))
            obs.count("stream.regions_rescored", len(observations))
            return events

    def _write(self, batch: DeltaBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Write a valid ``batch`` into the state.

        Returns ``(changed, dpos, dneg)``: the flat leaf cells of every
        insert and delete and of every relabel that changes its row's label,
        and the leaf-shaped count change.  The per-delta loop compares a
        relabel with the row's label at that point of the batch; a row's
        relabels change it at some point iff one of them differs from the
        row's label before the batch, so comparing with the stored label
        marks the same cells.  The count change is exact because a row's
        per-delta changes telescope to its slot after the batch minus its
        slot before it.
        """
        state, cards = self.state, self.hierarchy.cards
        n_cells = int(np.prod(cards))
        n = state.next_row_id
        ops, rows, labels = batch.ops, batch.rows, batch.labels
        relabels = ops[ops != OP_INSERT] == OP_RELABEL
        inserts = ops[ops != OP_DELETE] == OP_INSERT
        new_rows = np.arange(n, n + len(batch.values))
        old_rows = np.unique(rows[rows < n])
        before = state.cell_codes(old_rows)

        relabelled, new_labels = rows[relabels], labels[~inserts]
        old = relabelled < n
        stored = before[np.searchsorted(old_rows, relabelled[old])] // n_cells
        flipped = relabelled[old][stored != new_labels[old]]
        deleted = rows[~relabels]
        state.insert(batch.values, labels[inserts])
        state.relabel(relabelled, new_labels)
        state.delete(deleted)

        touched = np.concatenate([old_rows, new_rows])
        after = state.cell_codes(touched)[state.is_alive(touched)]
        counts = np.bincount(after, minlength=2 * n_cells) - np.bincount(
            before, minlength=2 * n_cells
        )
        changed = state.cell_codes(np.concatenate([new_rows, deleted, flipped]))
        return (
            changed % n_cells,
            counts[n_cells:].reshape(cards),
            counts[:n_cells].reshape(cards),
        )

    def _rescore(
        self, changed: np.ndarray
    ) -> list[tuple[Pattern, RegionReport | None]]:
        """Re-score exactly the regions the changed leaf cells can affect.

        ``changed`` holds flat (C-order) leaf cell codes, repeats allowed.

        The dirty cells (see the module docstring) come nodes bottom-up,
        cells in C order, so the observation sequence, and therefore the
        monitor's event order, is a pure function of the batch.  The data
        checks of the scalar path hold: a negative own or neighbour count
        on a scored cell raises
        :func:`~repro.core.imbalance.imbalance_score`'s ``ValueError``, and
        a negative ``tau_c`` raises in :func:`~repro.core.ibs.score_cells`.
        """
        observations: list[tuple[Pattern, RegionReport | None]] = []
        if not changed.size:
            return observations
        hierarchy = self.hierarchy
        leaf = np.zeros(hierarchy.cards, dtype=bool)
        leaf.reshape(-1)[changed] = True
        # Each round reads the previous round's mask, so it frees one axis
        # at most; a level-d cell has only d axes to free, which caps its
        # budget at d as hamming_budget does.
        mask = hierarchy.fill_cube(leaf, np.logical_or)
        for _ in range(hamming_budget(self.config.T, len(hierarchy.cards))):
            grown = mask.copy()
            for axis, card in enumerate(hierarchy.cards):
                at = (slice(None),) * axis
                grown[at + (slice(0, card),)] |= mask[at + (slice(card, None),)]
            mask = grown
        cells = np.flatnonzero(mask)[:-1]  # drop the root: last, always marked
        cells = cells[
            np.argsort(
                hierarchy.node_rank[hierarchy.cell_nodes(cells)], kind="stable"
            )
        ]
        keys = cells.tolist()
        missing = [cell for cell in keys if cell not in self._patterns]
        if missing:
            self._patterns.update(
                zip(missing, hierarchy.cell_patterns(np.array(missing)))
            )
        total = (
            hierarchy.cube_pos.reshape(-1)[cells]
            + hierarchy.cube_neg.reshape(-1)[cells]
        )
        scored = total > self.config.k
        *fields, biased = score_cube_cells(
            hierarchy, cells[scored], self.config.tau_c, self.config.T,
            self.config.k,
        )
        rows = zip(biased.tolist(), *(field.tolist() for field in fields))
        for cell, ok in zip(keys, scored.tolist()):
            pattern = self._patterns[cell]
            if not ok:
                self._biased.pop(pattern, None)
                observations.append((pattern, None))
                continue
            is_biased, *values = next(rows)
            report = RegionReport(pattern, *values)
            if is_biased:
                self._biased[pattern] = report
            else:
                self._biased.pop(pattern, None)
            observations.append((pattern, report))
        return observations

    def rescore_all(self) -> None:
        """Rebuild the biased-region map from the current counts (rebase load).

        The same one-pass lattice scoring as ``identify_ibs``.
        """
        self._biased = {
            report.pattern: report
            for report in lattice_biased_reports(
                self.hierarchy, self.config.tau_c, self.config.T,
                self.config.k, range(self.hierarchy.max_level, 0, -1),
            )
        }

    # -- reading ------------------------------------------------------------------
    def reports(self) -> list[RegionReport]:
        """The current IBS in Algorithm 1's order (bottom-up, then by score).

        Byte-identical to ``identify_ibs(self.state.materialize(), ...)``
        — the property suite pins this for arbitrary delta sequences.
        """
        by_level: dict[int, list[RegionReport]] = {}
        for report in self._biased.values():
            by_level.setdefault(report.pattern.level, []).append(report)
        out: list[RegionReport] = []
        for level in range(self.hierarchy.max_level, 0, -1):
            level_reports = by_level.get(level, [])
            level_reports.sort(key=report_sort_key)
            out.extend(level_reports)
        return out

    def digest(self) -> str:
        """sha256 over the full audited state (row counts, reports, alarms).

        Floats are serialised via ``repr`` (shortest round-trip, handles
        ``inf``), so two states digest equal iff they are bit-identical —
        the recovery oracle of the chaos drills (see "Chaos drills" in
        ``docs/resilience.md``).
        """
        payload = {
            "watermark": self.watermark,
            "n_batches": self.n_batches,
            "next_row": self.state.next_row_id,
            "n_alive": self.state.n_alive,
            "n_positive": self.state.n_alive_positive,
            "reports": [
                [
                    list(r.pattern.items), r.pos, r.neg, repr(r.ratio),
                    r.neighbor_pos, r.neighbor_neg, repr(r.neighbor_ratio),
                    repr(r.difference),
                ]
                for r in self.reports()
            ],
            "alarms": self.monitor.export_active(),
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    # -- replay -------------------------------------------------------------------
    @classmethod
    def from_journal(
        cls, log: DeltaLog, upto_seq: int | None = None
    ) -> "StreamAuditor":
        """Reconstruct the audited state by replaying the journal.

        ``upto_seq`` replays only records with seq ≤ the offset (prefix
        recovery); an offset that predates the live generation's rebase
        horizon is unreachable and raises :class:`~repro.errors.StreamError`.
        """
        if (
            upto_seq is not None
            and log.rebase_seq is not None
            and upto_seq < log.rebase_seq
        ):
            raise StreamError(
                f"replay offset {upto_seq} predates the compaction horizon "
                f"(rebase at seq {log.rebase_seq}); earlier state was folded"
            )
        auditor = cls(log.config)
        # A rebase is loaded into ``state`` one rows chunk at a time, as
        # each is read, so replay never holds the whole rebase as lists.
        rebase: dict | None = None
        state: StreamState | None = None
        chunks_seen = 0
        with obs.span("stream.replay", upto=upto_seq):
            for record in log.records():
                if upto_seq is not None and record.seq > upto_seq:
                    break
                if record.type == RECORD_GENESIS:
                    continue
                if record.type == RECORD_REBASE:
                    rebase = record.payload
                    chunks_seen = 0
                    state = StreamState.for_rebase(
                        log.config.schema, log.config.protected,
                        int(rebase["next_row"]),
                    )
                elif record.type == RECORD_ROWS:
                    if rebase is None:
                        raise JournalError(
                            f"rows record at seq {record.seq} without a "
                            "pending rebase"
                        )
                    state.load_rows(record.payload["rows"])
                    chunks_seen += 1
                elif record.type == RECORD_BATCH:
                    if rebase is not None:
                        raise JournalError(
                            f"batch at seq {record.seq} interleaved with an "
                            "incomplete rebase"
                        )
                    auditor.apply_batch(
                        record.seq, str(record.payload["id"]),
                        batch_deltas(record.payload),
                    )
                if rebase is not None and chunks_seen == int(rebase["n_chunks"]):
                    auditor._load_rebase(rebase, state)
                    rebase = None
        if rebase is not None:
            raise JournalError(
                "journal ends mid-rebase: row chunks are missing"
            )
        return auditor

    def _load_rebase(self, payload: dict, state: StreamState) -> None:
        self.state = state
        if self.state.n_alive != int(payload["n_rows"]):
            raise JournalError(
                f"rebase promised {payload['n_rows']} live rows, chunks "
                f"held {self.state.n_alive}"
            )
        self.hierarchy = Hierarchy(self.state.materialize())
        self.rescore_all()
        self.monitor = DriftMonitor.from_rebase(
            self.config.tau_c, self.config.hysteresis,
            payload["alarms"], int(payload["events_dropped"]),
        )
        self.applied_ids = set(str(b) for b in payload["applied"])
        self.watermark = int(payload["watermark"])
        self.n_batches = int(payload["n_batches"])

    def export_rows(self) -> Iterator[list[list]]:
        """Alive rows in journal-chunk form (compaction input)."""
        return self.state.export_rows()
