"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish schema problems from algorithmic misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A dataset schema is malformed or a column reference is invalid."""


class DataError(ReproError):
    """Dataset contents violate an invariant (shape, dtype, label range)."""


class PatternError(ReproError):
    """A region/subgroup pattern is malformed or references unknown values."""


class FitError(ReproError):
    """A model received invalid training input or was used before fitting."""


class NotFittedError(FitError):
    """``predict`` was called on an estimator that has not been fitted."""


class RemedyError(ReproError):
    """The dataset remedy could not be applied to a biased region."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class AnalysisError(ReproError):
    """The static-analysis engine was misconfigured or hit unreadable input."""


class ResilienceError(ReproError):
    """The fault-tolerant executor was misconfigured or misused."""


class CellTimeout(ResilienceError):
    """An experiment cell exceeded its wall-clock deadline."""


class CheckpointError(ResilienceError):
    """A sweep checkpoint is unreadable, corrupt, or from another sweep."""


class WorkerCrash(ResilienceError):
    """A pool worker died mid-cell (nonzero exit, signal, or lost pipe).

    Raised (and recorded) by the process backend when a child process
    disappears while running a cell.  It is a :class:`ResilienceError`, so
    the retry policy treats a crashed attempt as retryable — the cell is
    re-dispatched to a freshly spawned worker.
    """


class ObsError(ReproError):
    """A trace/metric artefact is malformed or the tracer was misused."""


class StoreError(ReproError):
    """A sharded dataset store is malformed, missing, or misused."""


class StoreCorruptionError(StoreError):
    """A shard file or manifest fails integrity verification (hash/size)."""


class StreamError(ReproError):
    """The streaming audit engine was misconfigured or hit invalid input."""


class JournalError(StreamError):
    """The delta journal is corrupt, torn, or inconsistent with its chain."""


class DeltaError(StreamError):
    """A stream delta is malformed or violates the schema/row universe."""


class BackpressureError(StreamError):
    """The bounded ingestion queue is full; the producer must back off."""


class ServeError(ReproError):
    """The serving gateway was misconfigured or a request is invalid."""


class AdmissionError(ServeError):
    """The gateway shed a request: too many in flight (load shedding)."""


class RequestDeadlineError(ServeError):
    """A request could not be served within its per-request deadline."""


class RequestTimeoutError(ServeError):
    """A client stalled mid-request past the gateway's socket timeout."""


class CircuitOpenError(ServeError):
    """The remedy circuit breaker is open; automated remedies are paused."""


class DrainingError(ServeError):
    """The gateway is draining (shutdown requested); retry elsewhere/later."""


class TransportError(ServeError):
    """An HTTP round trip failed at the transport layer (connect, read)."""


class InternalError(ReproError):
    """An internal invariant was violated; indicates a bug in the library."""
