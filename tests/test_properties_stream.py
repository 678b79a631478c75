"""Property: streamed IBS state is byte-identical to a from-scratch audit.

The acceptance property of the streaming tentpole: for *arbitrary* delta
sequences chopped into 1..100 micro-batches, the incremental engine's
reports (scores included), active alarm set, and digest must equal what a
cold ``identify_ibs`` over the materialized survivor rows produces — and a
journal replay must land on the same digest as the live auditor.

The re-score itself is pinned batch by batch against a scalar oracle
written here: the dirty set enumerated cell by cell with
``iter_neighbor_cells`` and each dirty region scored by the per-region
``region_report`` (§III-B counts) over a freshly built hierarchy.  Every
batch's alarm events and its (pattern, report-or-``None``) observation
sequence must match it, across distance thresholds whose Hamming budget
runs from 1 to past the node depth, with and without hysteresis.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hierarchy import Hierarchy
from repro.core.ibs import METHOD_OPTIMIZED, identify_ibs, ibs_patterns, region_report
from repro.core.neighbors import hamming_budget, iter_neighbor_cells
from repro.data.schema import Column, Schema
from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta
from repro.stream.engine import StreamAuditor
from repro.stream.journal import DeltaLog, StreamConfig
from repro.stream.monitor import DriftMonitor

pytestmark = pytest.mark.slow


def make_config(
    cards: tuple[int, ...], k: int, T: float, hysteresis: float
) -> StreamConfig:
    columns = [
        Column(f"x{i}", "categorical", tuple(f"v{j}" for j in range(c)))
        for i, c in enumerate(cards)
    ]
    names = tuple(c.name for c in columns)
    return StreamConfig(
        schema=Schema(columns), protected=names, tau_c=0.1, T=T, k=k,
        hysteresis=hysteresis,
    )


@st.composite
def delta_streams(draw):
    """A config plus a valid delta sequence chopped into 1..100 batches.

    ``T`` ∈ {1, 1.5, 2, 3} gives Hamming budgets 1, 2, 4 and 9, clamped to
    each node's depth — so deep budgets cover whole nodes.
    """
    n_attrs = draw(st.integers(1, 4))
    cards = tuple(draw(st.integers(2, 3)) for __ in range(n_attrs))
    k = draw(st.integers(1, 4))
    T = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0)))
    hysteresis = draw(st.sampled_from((0.0, 0.05)))
    seed = draw(st.integers(0, 10_000))
    n_deltas = draw(st.integers(1, 250))
    n_batches = draw(st.integers(1, 100))
    rng = np.random.default_rng(seed)

    deltas: list = []
    alive: list[int] = []
    next_id = 0
    for __ in range(n_deltas):
        roll = rng.random()
        if roll < 0.70 or not alive:
            values = tuple(int(rng.integers(0, c)) for c in cards)
            deltas.append(InsertDelta(values=values, label=int(rng.integers(0, 2))))
            alive.append(next_id)
            next_id += 1
        elif roll < 0.85:
            victim = alive.pop(int(rng.integers(0, len(alive))))
            deltas.append(DeleteDelta(row=victim))
        else:
            row = alive[int(rng.integers(0, len(alive)))]
            deltas.append(RelabelDelta(row=row, label=int(rng.integers(0, 2))))

    # Chop into n_batches contiguous chunks (some may be empty; drop those).
    cuts = sorted(
        int(rng.integers(0, n_deltas + 1)) for __ in range(n_batches - 1)
    )
    bounds = [0, *cuts, n_deltas]
    batches = [
        deltas[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    return make_config(cards, k, T, hysteresis), batches


def scalar_rescore(
    hierarchy: Hierarchy, config: StreamConfig, changed: set[tuple[int, ...]]
) -> list:
    """The re-score oracle: dirty cells enumerated and scored one by one."""
    observations: list = []
    if not changed:
        return observations
    axis_of = {a: i for i, a in enumerate(config.protected)}
    for level in range(hierarchy.max_level, 0, -1):
        for node in hierarchy.nodes_at_level(level):
            budget = hamming_budget(config.T, node.level)
            dirty: set[tuple[int, ...]] = set()
            for cell in changed:
                proj = tuple(cell[axis_of[a]] for a in node.attrs)
                dirty.add(proj)
                dirty.update(iter_neighbor_cells(node, proj, budget))
            for coords in sorted(dirty):
                pattern = node.pattern_of(coords)
                pos, neg = int(node.pos[coords]), int(node.neg[coords])
                if pos + neg < config.k + 1:
                    observations.append((pattern, None))
                    continue
                report = region_report(
                    hierarchy, node, pattern, pos, neg, config.T,
                    method=METHOD_OPTIMIZED,
                )
                observations.append((pattern, report))
    return observations


def observation_bytes(observations: list) -> list:
    """Observations with floats as ``repr``, so equality is bit equality."""
    return [
        (
            pattern.items,
            None if r is None else (
                r.pattern.items, r.pos, r.neg, repr(r.ratio), r.neighbor_pos,
                r.neighbor_neg, repr(r.neighbor_ratio), repr(r.difference),
            ),
        )
        for pattern, r in observations
    ]


class RecordingMonitor(DriftMonitor):
    """A drift monitor that keeps the observations of the last batch."""

    def observe(self, batch_seq, observations):
        self.last = list(observations)
        return super().observe(batch_seq, observations)


def changed_cells(rows: dict[int, list], deltas: list) -> set[tuple[int, ...]]:
    """Leaf cells a batch changes; ``rows`` (id -> [cell, label]) is updated."""
    changed: set[tuple[int, ...]] = set()
    for delta in deltas:
        if isinstance(delta, InsertDelta):
            rows[len(rows)] = [tuple(delta.values), delta.label]
            changed.add(tuple(delta.values))
        elif isinstance(delta, DeleteDelta):
            changed.add(rows[delta.row][0])
        elif rows[delta.row][1] != delta.label:
            rows[delta.row][1] = delta.label
            changed.add(rows[delta.row][0])
    return changed


@given(delta_streams())
@settings(max_examples=40, deadline=None)
def test_each_batch_matches_the_scalar_rescore_oracle(case):
    config, batches = case
    auditor = StreamAuditor(config)
    auditor.monitor = RecordingMonitor(config.tau_c, config.hysteresis)
    oracle_monitor = DriftMonitor(config.tau_c, config.hysteresis)
    rows: dict[int, list] = {}
    for i, deltas in enumerate(batches):
        events = auditor.apply_batch(i + 1, f"b{i}", deltas)
        expected = scalar_rescore(
            Hierarchy(auditor.state.materialize()), config,
            changed_cells(rows, deltas),
        )
        assert observation_bytes(auditor.monitor.last) == observation_bytes(expected)
        oracle_events = oracle_monitor.observe(i + 1, expected)
        assert [e.to_payload() for e in events] == [
            e.to_payload() for e in oracle_events
        ]


@given(delta_streams())
@settings(max_examples=40, deadline=None)
def test_streamed_state_equals_from_scratch_audit(case):
    config, batches = case
    auditor = StreamAuditor(config)
    for i, deltas in enumerate(batches):
        auditor.apply_batch(i + 1, f"b{i}", deltas)

    oracle = identify_ibs(
        auditor.state.materialize(), config.tau_c, T=config.T, k=config.k
    )
    mine = auditor.reports()
    # Byte-identical: same regions, same counts, same float scores bit-for-bit.
    assert [
        (r.pattern.items, r.pos, r.neg, r.ratio,
         r.neighbor_pos, r.neighbor_neg, r.neighbor_ratio, r.difference)
        for r in mine
    ] == [
        (r.pattern.items, r.pos, r.neg, r.ratio,
         r.neighbor_pos, r.neighbor_neg, r.neighbor_ratio, r.difference)
        for r in oracle
    ]
    # Every biased region is alarmed; with zero hysteresis the active alarm
    # set IS the biased pattern set, otherwise regions inside the band may
    # stay alarmed too.
    active = auditor.monitor.active_patterns()
    if config.hysteresis == 0:
        assert active == set(ibs_patterns(oracle))
    else:
        assert set(ibs_patterns(oracle)) <= active


@given(case=delta_streams())
@settings(max_examples=15, deadline=None)
def test_journal_replay_lands_on_the_live_digest(tmp_path_factory, case):
    config, batches = case
    directory = tmp_path_factory.mktemp("stream") / "s"
    log = DeltaLog.create(directory, config)
    live = StreamAuditor(config)
    try:
        for i, deltas in enumerate(batches):
            seq = log.append_batch(f"b{i}", [d.to_record() for d in deltas])
            live.apply_batch(seq, f"b{i}", deltas)
    finally:
        log.close()
    replayed = StreamAuditor.from_journal(DeltaLog.open(directory))
    assert replayed.digest() == live.digest()
    assert replayed.monitor.events == live.monitor.events
