"""Wire protocol of the audit gateway: status taxonomy and stable JSON.

Two contracts live here, both pinned by tests:

* **Status-code taxonomy** — :data:`STATUS_BY_ERROR` maps *every* class the
  :mod:`repro.errors` module exports to exactly one HTTP status code, and
  :func:`status_for` resolves an instance through its MRO so subclasses
  added later inherit a sane code until they get their own entry.  The
  exhaustiveness test (``tests/test_serve_protocol.py``) fails the build
  when a new error class ships without a mapping, which is what makes the
  taxonomy *stable*: clients can dispatch on codes without parsing
  messages.
* **Byte-stable JSON** — :func:`canonical_json_bytes` is the single
  encoder used by the gateway's JSON endpoints and the CLI ``--json``
  outputs (``repro stream status --json`` / ``repro data list --json``),
  so the health endpoint and the CLI agree byte for byte and machine
  consumers can hash or diff responses.

Retryability is part of the taxonomy: 429 (shed / backpressure), 503
(draining, breaker open) and 504 (deadline) mean "the same request may
succeed later" — the client retries exactly these, leaning on idempotency
keys for effect-exactly-once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import errors
from repro.data.io import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import only for the annotation
    from repro.data.store.registry import Registry

#: HTTP status for every error class ``repro.errors`` exports.  Exhaustive
#: by test: an exported ``ReproError`` subclass missing here fails CI.
STATUS_BY_ERROR: dict[type, int] = {
    errors.ReproError: 500,
    # Malformed client payloads: the request parsed but violates a schema,
    # data, or pattern invariant — the client must change it, not retry it.
    errors.SchemaError: 422,
    errors.DataError: 422,
    errors.PatternError: 422,
    errors.FitError: 422,
    errors.NotFittedError: 422,
    errors.ExperimentError: 400,
    errors.AnalysisError: 400,
    # Server-side subsystem failures.
    errors.RemedyError: 500,
    errors.ResilienceError: 500,
    errors.CellTimeout: 504,
    errors.CheckpointError: 500,
    errors.WorkerCrash: 503,
    errors.ObsError: 500,
    # Registry fetch tier: an unknown store is a 404; a store that fails
    # integrity verification is a server-side 500 (never served).
    errors.StoreError: 404,
    errors.StoreCorruptionError: 500,
    # Stream write path.
    errors.StreamError: 422,
    errors.JournalError: 500,
    errors.DeltaError: 422,
    errors.BackpressureError: 429,
    # Serving front.
    errors.ServeError: 500,
    errors.AdmissionError: 429,
    errors.RequestDeadlineError: 504,
    # The client, not the server, was too slow: resending the same request
    # at the same pace would stall again, so it is not retryable.
    errors.RequestTimeoutError: 408,
    errors.CircuitOpenError: 503,
    errors.DrainingError: 503,
    errors.TransportError: 502,
    errors.InternalError: 500,
}

#: Status codes the retrying client treats as transient: the identical
#: request (same idempotency key) may succeed after backoff.
RETRYABLE_STATUSES = frozenset({429, 503, 504})


def status_for(exc: BaseException) -> int:
    """The HTTP status for ``exc``: nearest mapped class in its MRO.

    Non-:class:`~repro.errors.ReproError` exceptions are a gateway bug by
    definition and map to 500.
    """
    for klass in type(exc).__mro__:
        code = STATUS_BY_ERROR.get(klass)
        if code is not None:
            return code
    return 500


def error_payload(exc: BaseException) -> dict:
    """JSON body of an error response: type, message, retryability."""
    status = status_for(exc)
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": status in RETRYABLE_STATUSES,
        "status": status,
    }


def canonical_json_bytes(payload: object) -> bytes:
    """Byte-stable JSON: sorted keys, fixed separators, trailing newline.

    The single encoding used by every gateway JSON response and by the
    CLI ``--json`` outputs, so the two are comparable byte for byte.
    """
    return (canonical_json(payload) + "\n").encode("utf-8")


def registry_payload(registry: Registry) -> dict:
    """JSON-safe snapshot of a :class:`~repro.data.store.Registry`.

    Shared by ``repro data list --json`` and the gateway's ``GET
    /datasets``; entries are sorted by name (the registry's own order) so
    the encoding above makes the whole document byte-stable.
    """
    datasets = []
    for name, manifest in registry.entries():
        nbytes = sum(
            meta["nbytes"]
            for shard in manifest["shards"]
            for meta in shard["files"].values()
        )
        datasets.append(
            {
                "name": name,
                "n_rows": int(manifest["n_rows"]),
                "n_shards": len(manifest["shards"]),
                "nbytes": int(nbytes),
                "live_leases": len(registry.live_leases(name)),
            }
        )
    return {
        "root": str(registry.root),
        "datasets": datasets,
        "tmp_dirs": [p.name for p in registry.tmp_dirs()],
    }


def status_table() -> list[tuple[str, int]]:
    """``(error class name, status)`` rows, sorted by name — for the docs
    and the CLI, not for dispatch (use :func:`status_for`)."""
    return sorted(
        (klass.__name__, code) for klass, code in STATUS_BY_ERROR.items()
    )


__all__ = [
    "STATUS_BY_ERROR",
    "RETRYABLE_STATUSES",
    "status_for",
    "error_payload",
    "canonical_json_bytes",
    "registry_payload",
    "status_table",
]
