"""Incremental IBS auditor: dirty-region re-scoring over a live stream.

The :class:`StreamAuditor` keeps one :class:`~repro.core.hierarchy.Hierarchy`
current across micro-batches of row edits instead of rebuilding it per
audit.  Applying a batch is O(deltas), independent of the total row count:

1. every delta updates the :class:`~repro.stream.state.StreamState` row
   store and accumulates into a leaf-granular count-delta array;
2. one :meth:`~repro.core.hierarchy.Hierarchy.apply_count_delta` call
   folds the batch's delta into every hierarchy node in place;
3. the **dirty-region tracker** maps each changed leaf cell to the cells
   whose score the change can affect: in a node ``N``, a changed leaf
   cell ``c`` perturbs the projection ``proj_N(c)`` itself plus every
   cell within the Hamming budget of it (the neighbourhood relation is
   symmetric, so those are exactly the cells that count ``proj_N(c)`` in
   their neighbourhood).  This is one masked array pass per node: the
   changed cells are marked in a boolean leaf array, projected onto the
   node with ``any`` over the dropped axes, and grown to the Hamming ball
   by ORing ``any(axis=S, keepdims=True)`` over the ``C(d, budget)`` axis
   subsets ``S``.  The node is then scored as whole arrays — the
   vectorized engine's :func:`~repro.core.neighbors.vectorized_neighbor_counts`
   and :func:`~repro.core.ibs.score_cells` — and only its dirty cells are
   materialised into reports, in C order (which is sorted coordinate
   order).  A node whose largest cell is ≤ ``k`` skips the neighbour
   counts: every dirty cell there is below the size threshold.

The resulting report set — and its ordering — is pinned byte-identical to
a from-scratch ``identify_ibs`` over the materialised data by a
hypothesis property (``tests/test_properties_stream.py``).  Alarm state is
delegated to the :class:`~repro.stream.monitor.DriftMonitor`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Iterator, Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.ibs import (
    METHOD_VECTORIZED,
    RegionReport,
    node_biased_reports,
    # Not called here, but layer tracers wrap it under this module's name
    # (bench/layers.py), so it stays bound.
    region_report,
    report_sort_key,
    score_cells,
)
from repro.core.imbalance import imbalance_score
from repro.core.neighbors import hamming_budget, vectorized_neighbor_counts
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.errors import DeltaError, JournalError, StreamError
from repro.obs import trace as obs
from repro.stream.deltas import (
    Delta,
    KIND_DELETE,
    KIND_INSERT,
    KIND_RELABEL,
    deltas_from_records,
)
from repro.stream.journal import (
    DeltaLog,
    RECORD_BATCH,
    RECORD_GENESIS,
    RECORD_REBASE,
    RECORD_ROWS,
    StreamConfig,
)
from repro.stream.monitor import AlarmEvent, DriftMonitor
from repro.stream.state import StreamState


def _empty_dataset(config: StreamConfig) -> Dataset:
    cols = {
        col.name: np.zeros(0, dtype=np.int64 if col.is_categorical else np.float64)
        for col in config.schema
    }
    return Dataset(config.schema, cols, np.zeros(0, dtype=np.int8), config.protected)


class StreamAuditor:
    """Incrementally maintained IBS state over a delta stream."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self.state = StreamState(config.schema, config.protected)
        self.hierarchy = Hierarchy(_empty_dataset(config))
        self.monitor = DriftMonitor(config.tau_c, config.hysteresis)
        self._axis_of = {a: i for i, a in enumerate(config.protected)}
        self._leaf_shape = config.schema.cardinalities(config.protected)
        #: pattern -> current RegionReport for every biased region.
        self._biased: dict[Pattern, RegionReport] = {}
        #: node mask -> (dropped leaf axes, Hamming-ball axis subsets,
        #: flat cell index -> Pattern memo); see :meth:`_node_plan`.
        self._plans: dict[
            int, tuple[tuple[int, ...], list[tuple[int, ...]], dict[int, Pattern]]
        ] = {}
        self.applied_ids: set[str] = set()
        self.watermark = 0
        self.n_batches = 0

    # -- validation -------------------------------------------------------------
    def validate_batch(
        self, deltas: Sequence[Delta]
    ) -> tuple[list[Delta], list[tuple[Delta, DeltaError]]]:
        """Split a batch into appliable deltas and poison ones, mutating nothing.

        Validation simulates the batch's sequential semantics with an
        overlay (an insert earlier in the batch makes a later delete of
        that row valid; a poisoned insert does not claim a row id), so the
        surviving prefix order applies cleanly.
        """
        next_id = self.state.next_row_id
        overlay: dict[int, bool] = {}
        valid: list[Delta] = []
        poison: list[tuple[Delta, DeltaError]] = []
        for delta in deltas:
            try:
                if delta.kind == KIND_INSERT:
                    self.state._validate_insert(delta, next_id)
                    overlay[next_id] = True
                    next_id += 1
                else:
                    row = delta.row
                    if row in overlay:
                        alive = overlay[row]
                    elif 0 <= row < self.state.next_row_id:
                        alive = self.state.is_alive(row)
                    else:
                        raise DeltaError(
                            f"{delta.kind} targets unknown row {row}; ids "
                            f"0..{next_id - 1} have been inserted"
                        )
                    if not alive:
                        raise DeltaError(
                            f"{delta.kind} targets dead row {row} "
                            "(already deleted)"
                        )
                    if delta.kind == KIND_RELABEL and delta.label not in (0, 1):
                        raise DeltaError(
                            f"labels must be binary 0/1; row {row} has "
                            f"{delta.label!r}"
                        )
                    if delta.kind == KIND_DELETE:
                        overlay[row] = False
            except DeltaError as exc:
                poison.append((delta, exc))
            else:
                valid.append(delta)
        return valid, poison

    # -- applying ---------------------------------------------------------------
    def apply_batch(
        self, seq: int, batch_id: str, deltas: Sequence[Delta]
    ) -> list[AlarmEvent]:
        """Apply one journalled batch: state, counts, dirty re-score, alarms.

        ``deltas`` must already have passed :meth:`validate_batch` (the
        journal only ever holds valid deltas); a failure here indicates a
        corrupted journal and raises typed.
        """
        if batch_id in self.applied_ids:
            raise JournalError(
                f"batch id {batch_id!r} applied twice (seq {seq}); the "
                "journal is corrupt"
            )
        with obs.span("stream.apply_batch", id=batch_id, n=len(deltas)):
            dpos = np.zeros(self._leaf_shape, dtype=np.int64)
            dneg = np.zeros(self._leaf_shape, dtype=np.int64)
            changed: set[tuple[int, ...]] = set()
            for delta in deltas:
                if delta.kind == KIND_INSERT:
                    _row, cell = self.state.insert(delta)
                    (dpos if delta.label == 1 else dneg)[cell] += 1
                    changed.add(cell)
                elif delta.kind == KIND_DELETE:
                    cell, label = self.state.delete(delta)
                    (dpos if label == 1 else dneg)[cell] -= 1
                    changed.add(cell)
                else:
                    cell, old, new = self.state.relabel(delta)
                    if old != new:
                        dpos[cell] += new - old
                        dneg[cell] += old - new
                        changed.add(cell)
            if changed:
                self.hierarchy.apply_count_delta(Pattern(), dpos, dneg)
            observations = self._rescore(changed)
            events = self.monitor.observe(seq, observations)
            self.applied_ids.add(batch_id)
            self.watermark = seq
            self.n_batches += 1
            obs.count("stream.deltas_applied", len(deltas))
            obs.count("stream.regions_rescored", len(observations))
            return events

    def _rescore(
        self, changed: set[tuple[int, ...]]
    ) -> list[tuple[Pattern, RegionReport | None]]:
        """Re-score exactly the regions the changed leaf cells can affect.

        One masked array pass per node (see the module docstring).  Visits
        nodes bottom-up in canonical order and dirty cells in C order —
        the sorted order of their coordinate tuples — so the observation
        sequence, and therefore the monitor's event order, is a pure
        function of the batch.  The data checks of the scalar path hold: a
        negative own or neighbour count on a scored cell raises
        :func:`~repro.core.imbalance.imbalance_score`'s ``ValueError``, and
        a negative ``tau_c`` raises in :func:`~repro.core.ibs.score_cells`.
        """
        observations: list[tuple[Pattern, RegionReport | None]] = []
        if not changed:
            return observations
        k, T = self.config.k, self.config.T
        leaf = np.zeros(self._leaf_shape, dtype=bool)
        leaf[tuple(zip(*changed))] = True
        for level in range(self.hierarchy.max_level, 0, -1):
            # Scaled-ancestor arrays shared by a level's sibling nodes, as in
            # identify_ibs; the counts do not change while this pass runs.
            cache: dict = {}
            for node in self.hierarchy.nodes_at_level(level):
                drop, balls, memo = self._node_plan(node)
                proj = leaf.any(axis=drop)
                dirty = np.zeros(node.shape, dtype=bool)
                for axes in balls:
                    dirty |= proj.any(axis=axes, keepdims=True)
                flat = np.flatnonzero(dirty)
                patterns = self._patterns(node, memo, flat.tolist())
                if node.max_cell_size <= k:
                    for pattern in patterns:
                        self._biased.pop(pattern, None)
                        observations.append((pattern, None))
                    continue
                npos, nneg = vectorized_neighbor_counts(
                    self.hierarchy, node, T, cache=cache
                )
                ratio, nratio, difference, size_ok, biased = score_cells(
                    node.pos, node.neg, npos, nneg, self.config.tau_c, k
                )
                columns = (
                    arr.ravel()[flat].tolist()
                    for arr in (
                        size_ok, biased, node.pos, node.neg, ratio,
                        npos, nneg, nratio, difference,
                    )
                )
                for pattern, ok, is_b, pos, neg, r, n_pos, n_neg, n_r, diff in zip(
                    patterns, *columns
                ):
                    if not ok:
                        self._biased.pop(pattern, None)
                        observations.append((pattern, None))
                        continue
                    if pos < 0 or neg < 0 or n_pos < 0 or n_neg < 0:
                        # Corrupt counts: raise the scalar path's error.
                        imbalance_score(pos, neg)
                        imbalance_score(n_pos, n_neg)
                    report = RegionReport(
                        pattern, pos, neg, r, n_pos, n_neg, n_r, diff
                    )
                    if is_b:
                        self._biased[pattern] = report
                    else:
                        self._biased.pop(pattern, None)
                    observations.append((pattern, report))
        return observations

    def _node_plan(
        self, node: HierarchyNode
    ) -> tuple[tuple[int, ...], list[tuple[int, ...]], dict[int, Pattern]]:
        """A node's dropped leaf axes, Hamming-ball axis subsets and pattern memo.

        Depends only on the node's attribute set, so it outlives hierarchy
        rebuilds; the memo holds at most one pattern per lattice cell.
        """
        plan = self._plans.get(node.mask)
        if plan is None:
            drop = tuple(
                ax for a, ax in self._axis_of.items() if a not in node.attrs
            )
            budget = hamming_budget(self.config.T, node.level)
            balls = list(itertools.combinations(range(node.level), budget))
            plan = self._plans[node.mask] = (drop, balls, {})
        return plan

    @staticmethod
    def _patterns(
        node: HierarchyNode, memo: dict[int, Pattern], flat: list[int]
    ) -> list[Pattern]:
        """Patterns of a node's cells by flat index, each built only once."""
        out = []
        for f in flat:
            pattern = memo.get(f)
            if pattern is None:
                pattern = memo[f] = node.pattern_of(
                    np.unravel_index(f, node.shape)
                )
            out.append(pattern)
        return out

    def rescore_all(self) -> None:
        """Rebuild the biased-region map from the current counts (rebase load)."""
        self._biased = {}
        for level in range(self.hierarchy.max_level, 0, -1):
            cache: dict = {}
            for node in self.hierarchy.nodes_at_level(level):
                for report in node_biased_reports(
                    self.hierarchy, node, self.config.tau_c, T=self.config.T,
                    k=self.config.k, method=METHOD_VECTORIZED, cache=cache,
                ):
                    self._biased[report.pattern] = report

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
        the chaos harness's recovery oracle.
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
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

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
        rebase: dict | None = None
        rows: list[list] = []
        chunks_seen = 0
        with obs.span("stream.replay", upto=upto_seq):
            for record in log.records():
                if upto_seq is not None and record.seq > upto_seq:
                    break
                if record.type == RECORD_GENESIS:
                    continue
                if record.type == RECORD_REBASE:
                    rebase = record.payload
                    rows = []
                    chunks_seen = 0
                    if int(rebase["n_chunks"]) == 0:
                        auditor._load_rebase(rebase, rows)
                        rebase = None
                elif record.type == RECORD_ROWS:
                    if rebase is None:
                        raise JournalError(
                            f"rows record at seq {record.seq} without a "
                            "pending rebase"
                        )
                    rows.extend(record.payload["rows"])
                    chunks_seen += 1
                    if chunks_seen == int(rebase["n_chunks"]):
                        auditor._load_rebase(rebase, rows)
                        rebase = None
                elif record.type == RECORD_BATCH:
                    if rebase is not None:
                        raise JournalError(
                            f"batch at seq {record.seq} interleaved with an "
                            "incomplete rebase"
                        )
                    deltas = deltas_from_records(record.payload["deltas"])
                    auditor.apply_batch(
                        record.seq, str(record.payload["id"]), deltas
                    )
        if rebase is not None:
            raise JournalError(
                "journal ends mid-rebase: row chunks are missing"
            )
        return auditor

    def _load_rebase(self, payload: dict, rows: list[list]) -> None:
        self.state = StreamState.from_rows(
            self.config.schema, self.config.protected,
            int(payload["next_row"]), rows,
        )
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
