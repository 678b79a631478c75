"""Streaming fairness auditor: durable delta log + incremental re-scoring.

The batch pipeline answers "is this dataset biased?"; this package answers
it *continuously* as the dataset changes.  Edits arrive as typed deltas
(:mod:`~repro.stream.deltas`) in micro-batches, are journalled durably
(:mod:`~repro.stream.journal`), folded incrementally into the region
hierarchy with dirty-region re-scoring (:mod:`~repro.stream.engine`), and
surfaced as drift alarms with hysteresis (:mod:`~repro.stream.monitor`).
The :mod:`~repro.stream.service` front adds backpressure and poison-delta
quarantine; the ``stream-chaos`` drills prove the crash-recovery contract
(see "Chaos drills" in ``docs/resilience.md``).  See ``docs/streaming.md``.
"""

from repro.stream.deltas import (
    Delta,
    DeleteDelta,
    InsertDelta,
    RelabelDelta,
    delta_from_record,
    deltas_from_records,
)
from repro.stream.engine import StreamAuditor
from repro.stream.journal import DeltaLog, RecoveryReport, StreamConfig
from repro.stream.monitor import AlarmEvent, DriftMonitor
from repro.stream.service import StreamService, read_batches_file
from repro.stream.state import StreamState

__all__ = [
    "AlarmEvent",
    "Delta",
    "DeleteDelta",
    "DeltaLog",
    "DriftMonitor",
    "InsertDelta",
    "RecoveryReport",
    "RelabelDelta",
    "StreamAuditor",
    "StreamConfig",
    "StreamService",
    "StreamState",
    "delta_from_record",
    "deltas_from_records",
    "read_batches_file",
]
