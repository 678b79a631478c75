"""Remedy-on-drift controller: journalled, deterministic, budgeted.

The workload here is genuinely biased (labels follow the protected
attribute ``a``), so the alarms come from the real monitor during ingest,
not from fabricated events — the whole drift → remedy → journal loop runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pattern import Pattern
from repro.core.remedy import RemedyResult
from repro.data.schema import Column, Schema
from repro.errors import RemedyError
from repro.serve.remedy import (
    REMEDY_APPLIED,
    REMEDY_BUDGET_EXHAUSTED,
    REMEDY_DUPLICATE,
    REMEDY_FAILED,
    REMEDY_NOOP,
    RemedyController,
    RemedyPolicy,
)
from repro.stream.deltas import InsertDelta, RelabelDelta
from repro.stream.journal import StreamConfig, batch_deltas
from repro.stream.monitor import ALARM_RAISE, AlarmEvent
from repro.stream.service import StreamService


def make_service(directory) -> StreamService:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1")),
        ]
    )
    config = StreamConfig(schema=schema, protected=("a", "b"), tau_c=0.1, k=2)
    return StreamService.create(directory, config)


def biased_batch(n_rows: int = 40, seed: int = 0) -> list[InsertDelta]:
    """Labels track the protected attribute ``a`` — guaranteed drift."""
    rng = np.random.default_rng(seed)
    deltas = []
    for i in range(n_rows):
        a = i % 2
        b = int(rng.integers(2))
        y = a if rng.random() < 0.9 else 1 - a
        deltas.append(InsertDelta(values=(a, b), label=y))
    return deltas


@pytest.fixture
def drifted(tmp_path):
    service = make_service(tmp_path / "s")
    events = service.ingest([("b0", biased_batch())])
    assert any(e.kind == ALARM_RAISE for e in events)
    yield service, events
    service.close()


class TestRemedyOnDrift:
    def test_drift_journals_one_deterministic_remedy_batch(self, drifted):
        service, events = drifted
        controller = RemedyController(service)
        outcome = controller.on_alarms(events)
        assert outcome["status"] == REMEDY_APPLIED
        assert outcome["batch"] == "remedy-w1"
        assert outcome["n_deltas"] > 0
        assert controller.applied == 1
        # The remedy is one ordinary batch in the journal, all relabels.
        batches = {
            r.payload["id"]: batch_deltas(r.payload).deltas()
            for r in service.log.records()
            if r.type == "batch"
        }
        assert set(batches) == {"b0", "remedy-w1"}
        assert all(d.kind == "relabel" for d in batches["remedy-w1"])
        assert len(batches["remedy-w1"]) == outcome["n_deltas"]
        # ... and recovery replays it byte-identically: same digest.
        live_digest = service.auditor.digest()
        reopened, __ = StreamService.open(service.log.directory)
        assert reopened.auditor.digest() == live_digest
        reopened.close()

    def test_remedy_deltas_are_a_pure_function_of_state_and_seed(
        self, tmp_path
    ):
        ids, deltas = [], []
        for name in ("x", "y"):
            service = make_service(tmp_path / name)
            service.ingest([("b0", biased_batch())])
            controller = RemedyController(service)
            deltas.append(controller.compute_deltas())
            ids.append(f"remedy-w{service.auditor.watermark}")
            service.close()
        assert ids[0] == ids[1] == "remedy-w1"
        assert deltas[0] == deltas[1]

    def test_in_flight_remedy_from_a_previous_life_dedups(self, drifted):
        service, events = drifted
        controller = RemedyController(service)
        # A previous life of the controller submitted the remedy for this
        # watermark but died before acking.  The deterministic batch id
        # collides with it and dedups instead of double-applying.
        assert service.submit("remedy-w1", [RelabelDelta(row=0, label=1)])
        outcome = controller.on_alarms(events)
        assert outcome == {"status": REMEDY_DUPLICATE, "batch": "remedy-w1"}
        assert controller.applied == 0
        # Dedup counts as breaker success: the engine is healthy.
        assert controller.breaker.snapshot()["total_successes"] == 1

    def test_budget_caps_lifetime_remedies(self, drifted):
        service, events = drifted
        controller = RemedyController(service, policy=RemedyPolicy(budget=1))
        assert controller.on_alarms(events)["status"] == REMEDY_APPLIED
        service.ingest([("b1", biased_batch(seed=1))])
        outcome = controller.on_alarms(events)
        assert outcome == {"status": REMEDY_BUDGET_EXHAUSTED, "budget": 1}
        journalled = [
            r.payload["id"] for r in service.log.records() if r.type == "batch"
        ]
        assert journalled == ["b0", "remedy-w1", "b1"]

    def test_balanced_state_is_a_noop(self, tmp_path):
        service = make_service(tmp_path / "s")
        # Perfectly balanced labels in every cell: nothing to relabel.
        deltas = [
            InsertDelta(values=(a, b), label=y)
            for a in (0, 1)
            for b in (0, 1)
            for y in (0, 1)
            for __ in range(3)
        ]
        service.ingest([("b0", deltas)])
        controller = RemedyController(service)
        fake = AlarmEvent(ALARM_RAISE, 1, Pattern([("a", 0)]), 0.5)
        outcome = controller.on_alarms([fake])
        assert outcome == {"status": REMEDY_NOOP, "batch": "remedy-w1"}
        assert controller.applied == 0
        assert controller.breaker.snapshot()["total_successes"] == 1
        service.close()

    def test_non_label_only_techniques_are_refused(self, drifted, monkeypatch):
        import repro.serve.remedy as remedy_mod

        def drops_a_row(dataset, *args, **kwargs):
            return RemedyResult(dataset=dataset.drop(np.array([0])))

        monkeypatch.setattr(remedy_mod, "remedy_dataset", drops_a_row)
        service, _events = drifted
        with pytest.raises(RemedyError, match="label-only"):
            RemedyController(service).compute_deltas()

    def test_negative_budget_is_refused(self):
        with pytest.raises(RemedyError, match="budget"):
            RemedyPolicy(budget=-1)

    def test_failed_remedy_never_raises_out_of_ingest(self, drifted):
        service, events = drifted
        controller = RemedyController(service)

        def broken_remedy():
            raise RemedyError("technique 'x' changed the row count")

        controller.remedy_fn = broken_remedy
        outcome = controller.on_alarms(events)
        assert outcome["status"] == REMEDY_FAILED
        assert outcome["error"] == "RemedyError"
        assert controller.applied == 0
        # Nothing reached the journal.
        journalled = [
            r.payload["id"] for r in service.log.records() if r.type == "batch"
        ]
        assert journalled == ["b0"]
