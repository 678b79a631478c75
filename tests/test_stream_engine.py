"""StreamAuditor: incremental re-scoring pinned to the batch oracle."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import ibs
from repro.core.ibs import identify_ibs, ibs_patterns, report_sort_key
from repro.data.schema import Column, Schema
from repro.errors import DeltaError, JournalError, StreamError
from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta
from repro.stream.engine import StreamAuditor
from repro.stream.journal import DeltaLog, StreamConfig, batch_deltas


@pytest.fixture
def config() -> StreamConfig:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1", "b2")),
            Column("x", "numeric"),
        ]
    )
    return StreamConfig(schema=schema, protected=("a", "b"), tau_c=0.1, k=2)


def insert(a: int, b: int, label: int) -> InsertDelta:
    return InsertDelta(values=(a, b, 0.5), label=label)


def skewed_batch() -> list[InsertDelta]:
    """Cell (a0, b0) all-positive, everything else balanced."""
    deltas = []
    for _ in range(6):
        deltas.append(insert(0, 0, 1))
    for a in (0, 1):
        for b in (1, 2):
            for label in (0, 1):
                deltas.extend([insert(a, b, label)] * 3)
    deltas.extend([insert(1, 0, 0)] * 3 + [insert(1, 0, 1)] * 3)
    return deltas


def assert_matches_oracle(auditor: StreamAuditor) -> None:
    """The streamed reports must equal a from-scratch identify, bytes and order."""
    oracle = identify_ibs(
        auditor.state.materialize(),
        auditor.config.tau_c,
        T=auditor.config.T,
        k=auditor.config.k,
    )
    mine = auditor.reports()
    assert [
        (r.pattern.items, r.pos, r.neg, r.ratio, r.neighbor_ratio, r.difference)
        for r in oracle
    ] == [
        (r.pattern.items, r.pos, r.neg, r.ratio, r.neighbor_ratio, r.difference)
        for r in mine
    ]
    assert auditor.monitor.active_patterns() == set(ibs_patterns(oracle))


class TestIncrementalScoring:
    def test_single_batch_matches_oracle(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        assert auditor.reports(), "the planted skew must be found"
        assert_matches_oracle(auditor)

    def test_deletes_and_relabels_track_the_oracle(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        auditor.apply_batch(
            2, "b1", [DeleteDelta(row=0), RelabelDelta(row=1, label=0)]
        )
        assert_matches_oracle(auditor)

    def test_emptying_a_cell_clears_its_report(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        biased_before = {r.pattern for r in auditor.reports()}
        assert biased_before
        # Delete every (a0, b0) row: rows 0..5 are the planted skew.
        auditor.apply_batch(
            2, "b1", [DeleteDelta(row=i) for i in range(6)]
        )
        assert_matches_oracle(auditor)

    def test_noop_relabel_rescales_nothing(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        events = auditor.apply_batch(2, "b1", [RelabelDelta(row=0, label=1)])
        assert events == []
        assert_matches_oracle(auditor)

    def test_reports_use_the_shared_sort_key(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        reports = auditor.reports()
        by_level: dict[int, list] = {}
        for r in reports:
            by_level.setdefault(r.pattern.level, []).append(r)
        for level_reports in by_level.values():
            assert level_reports == sorted(level_reports, key=report_sort_key)

    def test_duplicate_batch_id_raises(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        with pytest.raises(JournalError, match="applied twice"):
            auditor.apply_batch(2, "b0", [insert(0, 0, 1)])


class TestRescoreChecks:
    def test_node_with_every_cell_at_most_k_skips_neighbour_counts(
        self, config, monkeypatch
    ):
        # Every leaf cell of the skewed batch holds 6 rows: at k = 6 the
        # (a, b) node is pruned while both level-1 nodes are scored.
        auditor = StreamAuditor(dataclasses.replace(config, k=6))
        scored: list[tuple[str, ...]] = []
        real_counts = ibs.cell_neighbor_counts

        def counting(hierarchy, cells, T):
            for pattern in hierarchy.cell_patterns(cells):
                attrs = tuple(sorted(pattern.attrs))
                if attrs not in scored:
                    scored.append(attrs)
            return real_counts(hierarchy, cells, T)

        seen: list = []
        real_observe = auditor.monitor.observe

        def observe(seq, observations):
            seen.extend(observations)
            return real_observe(seq, observations)

        monkeypatch.setattr(ibs, "cell_neighbor_counts", counting)
        monkeypatch.setattr(auditor.monitor, "observe", observe)
        auditor.apply_batch(1, "b0", skewed_batch())
        assert auditor.hierarchy.node(("a", "b")).max_cell_size == 6
        assert scored == [("a",), ("b",)]
        leaf = [report for pattern, report in seen if pattern.level == 2]
        assert len(leaf) == 6 and all(r is None for r in leaf)
        assert_matches_oracle(auditor)

    @pytest.mark.parametrize(
        "attrs, cell, value",
        [
            (("a", "b"), (0, 1), -1),  # the dirty cell's own count
            (("b",), (1,), -20),  # a dominating count its neighbours use
        ],
    )
    def test_negative_count_on_a_scored_cell_raises(self, config, attrs, cell, value):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        auditor.hierarchy.node(attrs).neg[cell] = value
        with pytest.raises(ValueError, match="counts must be non-negative"):
            auditor.apply_batch(2, "b1", [insert(0, 1, 1)])

    def test_negative_tau_c_raises(self, config):
        auditor = StreamAuditor(config)
        # StreamConfig rejects it up front; the scoring step checks again.
        object.__setattr__(auditor.config, "tau_c", -0.5)
        with pytest.raises(ValueError, match="tau_c must be non-negative"):
            auditor.apply_batch(1, "b0", skewed_batch())


class TestValidateBatch:
    def test_intra_batch_insert_then_delete_is_valid(self, config):
        auditor = StreamAuditor(config)
        valid, poison = auditor.validate_batch(
            [insert(0, 0, 1), DeleteDelta(row=0)]
        )
        assert len(valid) == 2 and not poison

    def test_poisoned_insert_does_not_claim_a_row_id(self, config):
        auditor = StreamAuditor(config)
        bad = InsertDelta(values=(9, 0, 0.5), label=1)  # code out of range
        valid, poison = auditor.validate_batch([bad, DeleteDelta(row=0)])
        # The delete depended on the poisoned insert's id: both quarantined.
        assert not valid
        assert len(poison) == 2

    def test_delete_of_dead_row_is_poison(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", [insert(0, 0, 1)])
        valid, poison = auditor.validate_batch(
            [DeleteDelta(row=0), DeleteDelta(row=0)]
        )
        assert len(valid) == 1
        assert len(poison) == 1
        assert "dead row" in str(poison[0][1])

    def test_validation_mutates_nothing(self, config):
        auditor = StreamAuditor(config)
        auditor.validate_batch([insert(0, 0, 1)])
        assert auditor.state.next_row_id == 0


class TestReplay:
    def test_from_journal_equals_live_state(self, config, tmp_path):
        log = DeltaLog.create(tmp_path / "s", config)
        live = StreamAuditor(config)
        batches = [skewed_batch(), [DeleteDelta(row=2), insert(1, 2, 0)]]
        for i, deltas in enumerate(batches):
            seq = log.append_batch(f"b{i}", deltas)
            live.apply_batch(seq, f"b{i}", deltas)
        log.close()
        replayed = StreamAuditor.from_journal(DeltaLog.open(tmp_path / "s"))
        assert replayed.digest() == live.digest()
        assert replayed.monitor.events == live.monitor.events

    def test_replay_to_offset_is_a_prefix(self, config, tmp_path):
        log = DeltaLog.create(tmp_path / "s", config)
        prefix = StreamAuditor(config)
        seqs = []
        for i in range(3):
            deltas = [insert(i % 2, i % 3, i % 2)]
            seq = log.append_batch(f"b{i}", deltas)
            seqs.append(seq)
            if i < 2:
                prefix.apply_batch(seq, f"b{i}", deltas)
        log.close()
        partial = StreamAuditor.from_journal(
            DeltaLog.open(tmp_path / "s"), upto_seq=seqs[1]
        )
        assert partial.digest() == prefix.digest()
        assert partial.watermark == seqs[1]

    def test_replay_before_compaction_horizon_raises(self, config, tmp_path):
        log = DeltaLog.create(tmp_path / "s", config)
        live = StreamAuditor(config)
        deltas = skewed_batch()
        seq = log.append_batch("b0", deltas)
        live.apply_batch(seq, "b0", deltas)
        log.compact(
            live.export_rows(), live.state.next_row_id, live.state.n_alive,
            live.monitor.export_active(), 0,
        )
        with pytest.raises(StreamError, match="compaction horizon"):
            StreamAuditor.from_journal(log, upto_seq=0)
        # Replay at-or-after the rebase still works and matches.
        assert StreamAuditor.from_journal(log).digest() == live.digest()
        log.close()

    def test_replay_loads_a_rebase_one_rows_chunk_at_a_time(
        self, config, tmp_path, monkeypatch
    ):
        from repro.stream import journal as journal_mod
        from repro.stream import state as state_mod

        monkeypatch.setattr(journal_mod, "ROWS_PER_CHUNK", 1)
        monkeypatch.setattr(state_mod, "ROWS_PER_CHUNK", 1)
        log = DeltaLog.create(tmp_path / "s", config)
        live = StreamAuditor(config)
        deltas = skewed_batch() + [DeleteDelta(row=2)]
        seq = log.append_batch("b0", deltas)
        live.apply_batch(seq, "b0", deltas)
        log.compact(
            live.export_rows(), live.state.next_row_id, live.state.n_alive,
            live.monitor.export_active(), 0,
        )
        chunk_sizes: list[int] = []
        load_rows = state_mod.StreamState.load_rows

        def spy(state, rows):
            chunk_sizes.append(len(rows))
            load_rows(state, rows)

        monkeypatch.setattr(state_mod.StreamState, "load_rows", spy)
        replayed = StreamAuditor.from_journal(log)
        log.close()
        assert chunk_sizes == [1] * live.state.n_alive
        assert replayed.digest() == live.digest()

    def test_journal_records_round_trip_deltas(self, config, tmp_path):
        log = DeltaLog.create(tmp_path / "s", config)
        deltas = [insert(0, 1, 1), DeleteDelta(row=0)]
        log.append_batch("b0", deltas)
        (batch_record,) = [r for r in log.records() if r.type == "batch"]
        assert list(batch_deltas(batch_record.payload).deltas()) == deltas
        log.close()


class TestArrayApply:
    def test_insert_relabel_relabel_delete_of_one_row_in_one_batch(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        seen: list = []
        real_observe = auditor.monitor.observe

        def observe(seq, observations):
            seen.extend(pattern for pattern, _report in observations)
            return real_observe(seq, observations)

        auditor.monitor.observe = observe
        row = auditor.state.next_row_id
        auditor.apply_batch(2, "b1", [
            InsertDelta(values=(1, 2, 0.5), label=0),
            RelabelDelta(row=row, label=1),
            RelabelDelta(row=row, label=0),
            DeleteDelta(row=row),
        ])
        assert auditor.state.next_row_id == row + 1
        assert auditor.state.n_alive == row
        # The row's counts net to zero, but its cell is still re-scored.
        leaf = {(("a", 1), ("b", 2))}
        assert leaf <= {pattern.items for pattern in seen}
        assert_matches_oracle(auditor)

    def test_repeated_relabels_leave_the_last_label(self, config):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        auditor.apply_batch(2, "b1", [
            RelabelDelta(row=7, label=1), RelabelDelta(row=9, label=0),
            RelabelDelta(row=7, label=0), RelabelDelta(row=9, label=1),
            RelabelDelta(row=7, label=1),
        ])
        y = auditor.state.materialize().y
        assert (int(y[7]), int(y[9])) == (1, 1)
        assert_matches_oracle(auditor)

    def test_an_invalid_batch_raises_its_first_error_and_writes_nothing(
        self, config
    ):
        auditor = StreamAuditor(config)
        auditor.apply_batch(1, "b0", skewed_batch())
        digest = auditor.digest()
        with pytest.raises(DeltaError, match="^relabel targets dead row 2 "):
            auditor.apply_batch(2, "b1", [
                insert(0, 1, 1), DeleteDelta(row=2), RelabelDelta(row=2, label=1),
                DeleteDelta(row=99),
            ])
        assert auditor.digest() == digest
        assert "b1" not in auditor.applied_ids
