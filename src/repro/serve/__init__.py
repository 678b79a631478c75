"""Fault-tolerant audit gateway: multi-producer serving front (see docs/serving.md).

The package puts an HTTP front door on the two durable subsystems so
untrusted concurrent producers can feed the streaming auditor and fetch
registry datasets without ever being able to corrupt state:

* :mod:`repro.serve.protocol` — the stable status-code taxonomy mapping
  every typed :mod:`repro.errors` class to exactly one HTTP code, plus the
  byte-stable JSON encoding shared by the CLI ``--json`` outputs and the
  gateway's health endpoint;
* :mod:`repro.serve.breaker` — a deterministic circuit breaker
  (closed / open / half-open, probe-counted cooldown, no wall clock);
* :mod:`repro.serve.remedy` — the drift-triggered remedy controller:
  wraps :func:`repro.core.remedy_dataset` behind the breaker and journals
  every automated action as one ordinary delta batch, so recovery replays
  it byte-identically and no partial remedy is ever visible;
* :mod:`repro.serve.gateway` — the :class:`AuditGateway` itself: bounded
  admission (429), per-request deadlines (504), idempotent ingest via the
  stream's duplicate-batch dedup, a registry fetch tier with per-file
  sha256 headers, and graceful drain on SIGTERM/SIGINT;
* :mod:`repro.serve.client` — the retrying :class:`GatewayClient` built
  on :class:`repro.resilience.RetryPolicy`'s deterministic jittered
  backoff, with client-side sha256 verification and crash-atomic install
  of fetched stores.

The ``serve-chaos`` drills (see "Chaos drills" in ``docs/resilience.md``)
SIGKILL the server mid-ingest and mid-fetch, restart it, and prove the
client retry loop converges to a byte-identical replay with zero
acked-but-lost batches.

This package is the single place allowed to touch raw sockets and HTTP
primitives — rule R016 flags them anywhere else.
"""

from repro.serve.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.serve.client import GatewayClient
from repro.serve.gateway import AuditGateway, GatewayConfig
from repro.serve.protocol import (
    canonical_json_bytes,
    registry_payload,
    status_for,
    status_table,
)
from repro.serve.remedy import RemedyController, RemedyPolicy

__all__ = [
    "AuditGateway",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "GatewayClient",
    "GatewayConfig",
    "RemedyController",
    "RemedyPolicy",
    "canonical_json_bytes",
    "registry_payload",
    "status_for",
    "status_table",
]
