"""The audit gateway: a bounded, crash-safe HTTP front for stream + registry.

One :class:`AuditGateway` owns a :class:`~repro.stream.service.StreamService`
(the durable write path), optionally a :class:`~repro.data.store.Registry`
(the fetch tier) and a :class:`~repro.serve.remedy.RemedyController`
(remedy-on-drift).  Endpoints:

========================================  =====================================
``POST /ingest``                          journal + apply one delta batch
``GET  /health``                          gateway + stream status (stable JSON)
``GET  /datasets``                        registry listing (stable JSON)
``GET  /datasets/<name>``                 a store's manifest
``GET  /datasets/<name>/ref``             StoreRef identity (digest, rows)
``GET  /datasets/<name>/files/<s>/<f>``   raw shard bytes + sha256 header
========================================  =====================================

Degradation is graceful and *typed* (see :mod:`repro.serve.protocol`):

* **Load shedding** — at most ``admission_limit`` ingest requests are in
  the house at once; the next producer gets an immediate 429
  (:class:`~repro.errors.AdmissionError`) without touching the stream.
* **Deadlines** — every ingest carries a deadline (``X-Repro-Deadline``
  header, capped by the server's own); a request that cannot acquire the
  write lock in time gets a 504 (:class:`~repro.errors.RequestDeadlineError`)
  — crucially *before* any journalling, so a timed-out request has no
  durable effect and its retry is clean.
* **Idempotency** — the batch id is the idempotency key: the stream's
  duplicate-batch dedup turns a client retry of an already-journalled
  batch into a cheap 200 with ``"duplicate": true``.  Combined with
  ack-after-apply (the response is written only once the batch is fsynced
  *and* folded), producer retries are exactly-once in effect.
* **Drain** — :meth:`AuditGateway.request_drain` (wired to SIGTERM/SIGINT
  by ``repro serve``) flips new requests to 503
  (:class:`~repro.errors.DrainingError`), lets in-flight handlers finish,
  then flushes and closes the service so leases and file handles are
  released.  A SIGKILL instead of a drain is exactly what
  :mod:`repro.serve.chaos` proves recoverable.

The ``StreamService`` is deliberately single-writer; the gateway serialises
ingest behind one lock rather than pretending the journal is concurrent.
Multi-producer throughput comes from admission + dedup + the bounded wait,
not from interleaved appends — the sha chain stays linear.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.data.store.format import manifest_digest, read_manifest
from repro.errors import (
    AdmissionError,
    DataError,
    DrainingError,
    RequestDeadlineError,
    ReproError,
    ServeError,
    StoreError,
)
from repro.obs import trace as obs
from repro.serve.protocol import canonical_json_bytes, error_payload, registry_payload, status_for
from repro.serve.remedy import RemedyController
from repro.stream.deltas import deltas_from_records
from repro.stream.monitor import ALARM_CLEAR, ALARM_RAISE

#: Environment variable arming the fetch-tier chaos plan for one server
#: process: ``{"file": "shard-00000/c0000.npy"}`` makes the gateway
#: SIGKILL itself after serving *half* of that file's bytes — the
#: ``serve-chaos`` mid-fetch drill.
SERVE_CHAOS_ENV = "REPRO_SERVE_CHAOS"

#: Ingest deadline header; value in (fractional) seconds.
DEADLINE_HEADER = "X-Repro-Deadline"
SHA_HEADER = "X-Repro-Sha256"

_MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs; every field has a production-ish default."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: bind an ephemeral port (read it back from .address)
    #: Ingest requests admitted concurrently (queued on the write lock);
    #: the next one is shed with a 429.
    admission_limit: int = 8
    #: Default + ceiling for the per-request ingest deadline (seconds).
    deadline_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.admission_limit < 1:
            raise ServeError(
                f"admission_limit must be >= 1, got {self.admission_limit}"
            )
        if self.deadline_seconds <= 0:
            raise ServeError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )


def _fetch_chaos_plan() -> dict | None:
    """The armed mid-fetch chaos plan, if any (see :data:`SERVE_CHAOS_ENV`)."""
    spec = os.environ.get(SERVE_CHAOS_ENV)
    if not spec:
        return None
    plan = json.loads(spec)
    if not isinstance(plan, dict) or "file" not in plan:
        raise ServeError(f"malformed {SERVE_CHAOS_ENV} plan: {spec!r}")
    return plan


class AuditGateway:
    """HTTP front for one stream directory and (optionally) one registry."""

    def __init__(
        self,
        service,
        registry=None,
        config: GatewayConfig | None = None,
        controller: RemedyController | None = None,
    ):
        self.service = service
        self.registry = registry
        self.config = config or GatewayConfig()
        self.controller = controller
        self._ingest_lock = threading.Lock()
        self._state_lock = threading.Lock()  # guards the counters below
        self._inflight = 0
        self._acked = 0
        self._shed = 0
        self._draining = False
        self._serve_thread: threading.Thread | None = None
        self._fetch_chaos = _fetch_chaos_plan()
        gateway = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Socket timeout: a client that stalls mid-request (or idles on
            # a kept-alive connection) frees its thread within one deadline,
            # so a drain that joins handler threads cannot hang on it.
            timeout = gateway.config.deadline_seconds

            def log_message(self, *args) -> None:  # silence default stderr noise
                pass

            def do_GET(self) -> None:
                gateway._handle(self, "GET")

            def do_POST(self) -> None:
                gateway._handle(self, "POST")

        self.server = ThreadingHTTPServer(
            (self.config.host, self.config.port), Handler
        )
        # Non-daemon handler threads: server_close() joins only those, so a
        # drain finishes (and acks) every in-flight request before the
        # service closes.
        self.server.daemon_threads = False

    # -- lifecycle ---------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — read the port back when it was 0."""
        host, port = self.server.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Serve in a background thread (the test/bench entry point)."""
        self._serve_thread = threading.Thread(
            target=self.server.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()

    def install_signal_handlers(self) -> None:
        """Make SIGTERM/SIGINT request a graceful drain (idempotent).

        Must run on the main thread.  ``repro serve`` calls it before it
        prints its ready line, so a signal sent as soon as that line is
        read drains the gateway instead of killing the process.
        """
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._drain_on_signal)

    def _drain_on_signal(self, signum: int, frame: object) -> None:
        self.request_drain()

    def run(self) -> None:
        """Serve in the calling thread until a drain is requested.

        Installs the SIGTERM/SIGINT drain handlers
        (:meth:`install_signal_handlers`): stop accepting, finish in-flight
        requests, flush and close the service.  This is the ``repro serve``
        entry point.
        """
        self.install_signal_handlers()
        try:
            self.server.serve_forever()
        finally:
            self.server.server_close()  # joins in-flight handler threads
            self.service.close()

    def request_drain(self) -> None:
        """Flip to draining and stop the accept loop (idempotent, async-safe)."""
        self._draining = True
        # shutdown() blocks until serve_forever exits, so it must not run
        # on the serving thread (signal handlers land there).
        threading.Thread(target=self.server.shutdown, daemon=True).start()

    def stop(self) -> None:
        """Drain and release everything (the test/bench counterpart of run)."""
        self._draining = True
        self.server.shutdown()
        self.server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=30.0)
        self.service.close()

    # -- dispatch ----------------------------------------------------------------
    def _handle(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        try:
            if self._draining:
                raise DrainingError(
                    "gateway is draining; no new requests are accepted"
                )
            path = handler.path.rstrip("/") or "/"
            if method == "POST" and path == "/ingest":
                payload = self._ingest(handler)
            elif method == "GET" and path == "/health":
                payload = self.health_payload()
            elif method == "GET" and path == "/datasets":
                payload = registry_payload(self._require_registry())
            elif method == "GET" and path.startswith("/datasets/"):
                if self._shard_file_get(handler, path):
                    return  # raw file bytes already written
                payload = self._manifest_or_ref(path)
            else:
                raise ServeError(f"no such endpoint: {method} {handler.path}")
        except ReproError as exc:
            # Errors can fire before the request body was consumed, which
            # would desync a kept-alive connection — close it instead.
            handler.close_connection = True
            self._send_json(handler, status_for(exc), error_payload(exc))
            return
        except Exception as exc:  # repro: ignore[R007] — boundary: every
            # handler fault must become a 500 body, never a socket abort.
            handler.close_connection = True
            self._send_json(
                handler,
                500,
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "retryable": False,
                    "status": 500,
                },
            )
            return
        self._send_json(handler, 200, payload)

    def _send_json(
        self, handler: BaseHTTPRequestHandler, status: int, payload: dict
    ) -> None:
        body = canonical_json_bytes(payload)
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    # -- ingest ------------------------------------------------------------------
    def _read_body(self, handler: BaseHTTPRequestHandler) -> bytes:
        length = int(handler.headers.get("Content-Length") or 0)
        if length <= 0:
            raise DataError("ingest requires a JSON body with Content-Length")
        if length > _MAX_BODY_BYTES:
            raise DataError(
                f"ingest body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte cap; split the batch"
            )
        return handler.rfile.read(length)

    def _deadline(self, handler: BaseHTTPRequestHandler) -> float:
        raw = handler.headers.get(DEADLINE_HEADER)
        if raw is None:
            return self.config.deadline_seconds
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"bad {DEADLINE_HEADER} header: {raw!r}")
        if value <= 0:
            raise RequestDeadlineError(
                f"deadline {value}s already expired on arrival"
            )
        return min(value, self.config.deadline_seconds)

    def _ingest(self, handler: BaseHTTPRequestHandler) -> dict:
        deadline = self._deadline(handler)
        body = self._read_body(handler)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise DataError(f"ingest body is not valid JSON: {exc.msg}")
        if (
            not isinstance(payload, dict)
            or "id" not in payload
            or not isinstance(payload.get("deltas"), list)
        ):
            raise DataError('ingest body must be {"id": ..., "deltas": [...]}')
        batch_id = str(payload["id"])
        deltas = deltas_from_records(payload["deltas"])

        with self._state_lock:
            if self._inflight >= self.config.admission_limit:
                self._shed += 1
                obs.count("serve.shed")
                raise AdmissionError(
                    f"{self._inflight} ingest requests in flight (limit "
                    f"{self.config.admission_limit}); retry batch "
                    f"{batch_id!r} after backoff"
                )
            self._inflight += 1
            obs.gauge_set("serve.inflight", self._inflight)
        try:
            # The deadline covers the wait for the single-writer lock: a
            # request that cannot start journalling in time has had no
            # durable effect, so its 504 is safe to retry verbatim.
            if not self._ingest_lock.acquire(timeout=deadline):
                raise RequestDeadlineError(
                    f"batch {batch_id!r} waited {deadline:.3f}s for the "
                    "write lock; retry with backoff"
                )
            try:
                return self._ingest_locked(batch_id, deltas)
            finally:
                self._ingest_lock.release()
        finally:
            with self._state_lock:
                self._inflight -= 1
                obs.gauge_set("serve.inflight", self._inflight)

    def _ingest_locked(self, batch_id: str, deltas) -> dict:
        with obs.span("serve.ingest", batch=batch_id, n=len(deltas)):
            accepted = self.service.submit(batch_id, deltas)
            if not accepted:
                response = {
                    "batch": batch_id,
                    "duplicate": True,
                    "watermark": self.service.auditor.watermark,
                }
            else:
                events = self.service.drain()
                response = {
                    "batch": batch_id,
                    "duplicate": False,
                    "watermark": self.service.auditor.watermark,
                    "alarms_raised": sum(e.kind == ALARM_RAISE for e in events),
                    "alarms_cleared": sum(e.kind == ALARM_CLEAR for e in events),
                }
                if self.controller is not None:
                    response["remedy"] = self.controller.on_alarms(events)
        # Reaching here means the batch is fsynced AND applied: the ack
        # the response carries is durable (chaos asserts acked => replayed).
        with self._state_lock:
            self._acked += 1
        return response

    # -- registry fetch tier -----------------------------------------------------
    def _require_registry(self):
        if self.registry is None:
            raise StoreError("this gateway serves no dataset registry")
        return self.registry

    def _manifest_for(self, name: str) -> tuple[Path, dict]:
        registry = self._require_registry()
        path = registry.path_of(name)
        return path, read_manifest(path)

    def _shard_file_get(self, handler: BaseHTTPRequestHandler, path: str) -> bool:
        """Serve raw shard files; return False for manifest/ref paths."""
        parts = [p for p in path.split("/") if p][1:]  # drop "datasets"
        if len(parts) != 4 or parts[1] != "files":
            return False
        name, _, shard_dir, fname = parts
        store_path, manifest = self._manifest_for(name)
        meta = None
        for entry in manifest["shards"]:
            if entry["dir"] == shard_dir:
                meta = entry["files"].get(fname)
                break
        if meta is None:
            raise StoreError(
                f"dataset {name!r} has no shard file {shard_dir}/{fname}"
            )
        data = (store_path / shard_dir / fname).read_bytes()
        handler.send_response(200)
        handler.send_header("Content-Type", "application/octet-stream")
        handler.send_header("Content-Length", str(len(data)))
        handler.send_header(SHA_HEADER, meta["sha256"])
        handler.end_headers()
        plan = self._fetch_chaos
        if plan is not None and plan["file"] == f"{shard_dir}/{fname}":
            # Mid-fetch chaos: half the body, then death by signal — the
            # client sees a short read and must converge by retrying.
            handler.wfile.write(data[: len(data) // 2])
            handler.wfile.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        handler.wfile.write(data)
        obs.count("serve.shard_bytes", len(data))
        return True

    def _manifest_or_ref(self, path: str) -> dict:
        parts = [p for p in path.split("/") if p][1:]
        if len(parts) == 1:
            _, manifest = self._manifest_for(parts[0])
            return manifest
        if len(parts) == 2 and parts[1] == "ref":
            name = parts[0]
            _, manifest = self._manifest_for(name)
            return {
                "name": name,
                "manifest_digest": manifest_digest(manifest),
                "n_rows": int(manifest["n_rows"]),
                "n_shards": len(manifest["shards"]),
            }
        raise ServeError(f"no such endpoint: GET /{'/'.join(['datasets', *parts])}")

    # -- health ------------------------------------------------------------------
    def health_payload(self) -> dict:
        """Gateway + stream status; embeds the exact ``stream status --json``
        payload under ``"stream"`` so the two stay comparable byte for byte."""
        deadline = self.config.deadline_seconds
        if not self._ingest_lock.acquire(timeout=deadline):
            raise RequestDeadlineError(
                f"health waited {deadline:.3f}s for the write lock"
            )
        try:
            stream = self.service.status()
        finally:
            self._ingest_lock.release()
        with self._state_lock:
            payload = {
                "status": "draining" if self._draining else "ok",
                "inflight": self._inflight,
                "acked_batches": self._acked,
                "shed_requests": self._shed,
                "admission_limit": self.config.admission_limit,
                "deadline_seconds": self.config.deadline_seconds,
                "stream": stream,
            }
        if self.controller is not None:
            payload["breaker"] = self.controller.breaker.snapshot()
            payload["remedies_applied"] = self.controller.applied
        return payload


__all__ = [
    "AuditGateway",
    "DEADLINE_HEADER",
    "GatewayConfig",
    "SERVE_CHAOS_ENV",
    "SHA_HEADER",
]
