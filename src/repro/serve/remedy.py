"""Drift-triggered remedy controller: automated, supervised, journalled.

When the stream's :class:`~repro.stream.monitor.DriftMonitor` raises new
alarms, the controller runs the paper's remedy (Algorithm 2, via
:func:`repro.core.remedy_dataset`) over the *current* audited state and
feeds the outcome back into the stream as one ordinary delta batch.  Three
properties make this safe to automate:

* **Atomic and replayable** — the remedy lands in the journal as a single
  ``append_batch`` record under the sha chain, exactly like a producer
  batch.  Either the whole remedy is durable or none of it is; recovery
  replays it byte-identically, and a crash between journal and ack is
  healed by the deterministic batch id (``remedy-w<watermark>``) hitting
  the duplicate-batch dedup on retry.  No partial remedy is ever visible.
* **Supervised** — the call is wrapped in a
  :class:`~repro.serve.breaker.CircuitBreaker`: a remedy that keeps
  failing trips the breaker open instead of hammering the engine, the
  auditor keeps serving reads throughout, and a bounded ``budget`` caps
  how many automated remedies one controller will ever journal.
* **Label-only** — the controller speaks the *massaging* technique, the
  one sampler whose effect is purely ``with_labels`` on the same rows.
  That makes the translation back into deltas exact: positional diff of
  labels before/after, mapped through
  :meth:`~repro.stream.state.StreamState.alive_row_ids` onto stable row
  ids.  Techniques that add or drop rows have no faithful positional
  mapping onto the stream's id space, so the technique is fixed, and a
  remedy that changed the row count is refused with a typed error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import remedy_dataset
from repro.core.samplers import MASSAGING
from repro.errors import CircuitOpenError, RemedyError, ReproError
from repro.obs import trace as obs
from repro.serve.breaker import CircuitBreaker
from repro.stream.deltas import RelabelDelta
from repro.stream.monitor import ALARM_RAISE

#: Controller outcome statuses (the ``status`` field of :meth:`on_alarms`).
REMEDY_IDLE = "idle"
REMEDY_APPLIED = "applied"
REMEDY_DUPLICATE = "duplicate"
REMEDY_NOOP = "noop"
REMEDY_FAILED = "failed"
REMEDY_OPEN = "open"
REMEDY_BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class RemedyPolicy:
    """Knobs of the automated remedy loop.

    ``budget`` caps journalled remedies over the controller's lifetime;
    ``failure_threshold`` / ``probe_after`` parameterise the breaker;
    ``seed`` feeds ``remedy_dataset`` (combined with the watermark, so two
    remedies at different watermarks draw independent-but-reproducible
    row selections).
    """

    budget: int = 8
    failure_threshold: int = 3
    probe_after: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise RemedyError(f"budget must be >= 0, got {self.budget}")


class RemedyController:
    """Folds new drift alarms into journalled remedy batches, via a breaker."""

    def __init__(
        self,
        service,
        policy: RemedyPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        remedy_fn: Callable | None = None,
    ):
        self.service = service
        self.policy = policy or RemedyPolicy()
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=self.policy.failure_threshold,
            probe_after=self.policy.probe_after,
        )
        #: Injection seam for the chaos/property tests: same signature as
        #: :meth:`compute_deltas`; faults injected here exercise the
        #: breaker without touching the remedy engine.
        self.remedy_fn = remedy_fn or self.compute_deltas
        self.applied = 0

    # -- the remedy itself -------------------------------------------------------
    def compute_deltas(self) -> list[RelabelDelta]:
        """Run ``remedy_dataset`` on the live state; diff into relabels.

        Massaging never reorders, adds, or drops rows, so position ``i``
        of the remedied dataset is position ``i`` of the input and the
        label diff is exact.  A technique that changed the row count
        would break that bijection — guarded here as a hard error.
        """
        state = self.service.auditor.state
        config = self.service.auditor.config
        dataset = state.materialize()
        if dataset.n_rows == 0:
            return []
        result = remedy_dataset(
            dataset,
            config.tau_c,
            T=config.T,
            k=config.k,
            technique=MASSAGING,
            seed=self.policy.seed + self.service.auditor.watermark,
        )
        if result.dataset.n_rows != dataset.n_rows:
            raise RemedyError(
                f"technique {MASSAGING!r} changed the row count "
                f"({dataset.n_rows} -> {result.dataset.n_rows}); label-only "
                "remedies are required on a stream"
            )
        alive_ids = state.alive_row_ids()
        changed = np.flatnonzero(result.dataset.y != dataset.y)
        return [
            RelabelDelta(
                row=int(alive_ids[i]), label=int(result.dataset.y[i])
            )
            for i in changed
        ]

    # -- the supervised loop -----------------------------------------------------
    def on_alarms(self, events) -> dict:
        """React to one batch's alarm events; returns a JSON-safe outcome.

        Only *raise* events trigger a remedy (clears are good news).  The
        outcome never raises: ingest must keep succeeding whatever the
        remedy engine does — that is the whole point of the breaker.
        """
        raised = [e for e in events if e.kind == ALARM_RAISE]
        if not raised:
            return {"status": REMEDY_IDLE}
        if self.applied >= self.policy.budget:
            return {"status": REMEDY_BUDGET_EXHAUSTED, "budget": self.policy.budget}
        try:
            self.breaker.guard()
        except CircuitOpenError as exc:
            obs.count("serve.remedy_denied")
            return {"status": REMEDY_OPEN, "message": str(exc)}
        # Deterministic id: derived from journal state, so a crash between
        # journal and ack dedups on retry instead of double-applying.
        batch_id = f"remedy-w{self.service.auditor.watermark}"
        try:
            with obs.span("serve.remedy", batch=batch_id, alarms=len(raised)):
                deltas = self.remedy_fn()
                if not deltas:
                    self.breaker.record_success()
                    return {"status": REMEDY_NOOP, "batch": batch_id}
                if not self.service.submit(batch_id, deltas):
                    # Journalled by a previous life of this controller.
                    self.breaker.record_success()
                    return {"status": REMEDY_DUPLICATE, "batch": batch_id}
                self.service.drain()
        except ReproError as exc:
            self.breaker.record_failure()
            obs.count("serve.remedy_failures")
            return {
                "status": REMEDY_FAILED,
                "batch": batch_id,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        self.breaker.record_success()
        self.applied += 1
        obs.count("serve.remedies_applied")
        return {
            "status": REMEDY_APPLIED,
            "batch": batch_id,
            "n_deltas": len(deltas),
            "budget_left": self.policy.budget - self.applied,
        }


__all__ = [
    "REMEDY_APPLIED",
    "REMEDY_BUDGET_EXHAUSTED",
    "REMEDY_DUPLICATE",
    "REMEDY_FAILED",
    "REMEDY_IDLE",
    "REMEDY_NOOP",
    "REMEDY_OPEN",
    "RemedyController",
    "RemedyPolicy",
]
