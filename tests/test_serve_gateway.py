"""In-process gateway: admission, deadlines, idempotent ingest, fetch tier.

Every test runs a real ``ThreadingHTTPServer`` on an ephemeral port and a
real :class:`~repro.serve.client.GatewayClient` over localhost — the full
wire path, minus processes (the process-level drills are the
``serve-chaos`` rows of :mod:`repro.resilience.chaos`; see "Chaos drills"
in ``docs/resilience.md``).
"""

from __future__ import annotations

import io
import json
import shutil
import signal
import socket
import struct
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXIT_OK, main
from repro.data.schema import Column, Schema
from repro.data.store import ShardedDataset
from repro.data.store.format import manifest_digest, read_manifest
from repro.data.store.registry import Registry, verify_store
from repro.data.synth import load_compas
from repro.errors import (
    DataError,
    ReproError,
    ServeError,
    StoreError,
    TransportError,
)
from repro.resilience import RetryPolicy
from repro.serve.client import DEFAULT_RETRY, GatewayClient
from repro.serve.gateway import AuditGateway, GatewayConfig
from repro.serve.protocol import registry_payload
from repro.stream.deltas import InsertDelta
from repro.stream.journal import StreamConfig
from repro.stream.service import StreamService

#: Errors surface immediately: one attempt, no backoff sleeps in tests.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0)


def make_service(directory) -> StreamService:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1")),
        ]
    )
    config = StreamConfig(schema=schema, protected=("a", "b"), tau_c=0.1, k=2)
    return StreamService.create(directory, config)


@pytest.fixture
def gateway(tmp_path):
    """A running gateway over a fresh stream directory (no registry)."""
    service = make_service(tmp_path / "stream")
    gw = AuditGateway(service, config=GatewayConfig(admission_limit=2))
    gw.start()
    yield gw
    gw.stop()


@pytest.fixture
def client(gateway):
    host, port = gateway.address
    return GatewayClient(host, port, retry=NO_RETRY)


def insert(a: int, b: int, label: int) -> InsertDelta:
    return InsertDelta(values=(a, b), label=label)


class TestIngest:
    def test_ack_means_journalled_and_applied(self, gateway, client):
        ack = client.ingest("b0", [insert(0, 0, 1), insert(1, 1, 0)])
        assert ack["batch"] == "b0"
        assert ack["duplicate"] is False
        assert ack["watermark"] == 1
        assert set(ack) == {
            "batch", "duplicate", "watermark", "alarms_raised", "alarms_cleared",
        }
        # The service really folded it — not just queued.
        assert gateway.service.auditor.state.n_alive == 2

    def test_retry_of_an_acked_batch_is_a_cheap_duplicate(self, gateway, client):
        client.ingest("b0", [insert(0, 0, 1)])
        ack = client.ingest("b0", [insert(0, 0, 1)])
        assert ack == {"batch": "b0", "duplicate": True, "watermark": 1}
        assert gateway.service.auditor.n_batches == 1

    def test_malformed_body_is_a_typed_422_not_a_retry(self, client):
        with pytest.raises(DataError, match="gateway:.*JSON"):
            client._json(
                "POST", "/ingest", body=b"{not json",
                headers={"Content-Length": "9"},
            )

    def test_bad_delta_records_are_typed(self, client):
        status, __, data = client.request(
            "POST", "/ingest", body=b'{"id": "x", "deltas": [["bogus"]]}'
        )
        assert status == 422

    def test_non_finite_code_is_dead_lettered_not_a_500(self, gateway, client):
        # json.loads accepts NaN/Infinity, and 1e400 overflows to inf.
        for i, literal in enumerate((b"NaN", b"Infinity", b"1e400")):
            body = (
                b'{"id": "n%d", "deltas": [["i", [0, 1], 1], ["i", [%s, 0], 1]]}'
                % (i, literal)
            )
            status, __, data = client.request("POST", "/ingest", body=body)
            assert status == 200, data
        service = gateway.service
        assert service.auditor.state.n_alive == 3
        errors = [e["error"] for e in service.log.dead_letters()]
        assert errors == [
            "column 'a' has code nan at row 1, outside [0, 2)",
            "column 'a' has code inf at row 2, outside [0, 2)",
            "column 'a' has code inf at row 3, outside [0, 2)",
        ]

    def test_missing_body_is_a_422(self, client):
        status, __, data = client.request("POST", "/ingest")
        assert status == 422
        assert b"DataError" in data

    def test_admission_limit_sheds_with_429(self, gateway, client):
        # Occupy the single-writer lock so admitted requests queue on it,
        # then fill every admission slot; the next producer is shed.
        gateway._ingest_lock.acquire()
        try:
            body = b'{"id": "held", "deltas": []}'

            def occupant(i):
                client.request(
                    "POST", "/ingest",
                    body=b'{"id": "occ%d", "deltas": []}' % i,
                    headers={"X-Repro-Deadline": "30"},
                )

            threads = [
                threading.Thread(target=occupant, args=(i,), daemon=True)
                for i in range(gateway.config.admission_limit)
            ]
            for t in threads:
                t.start()
            # Wait until both slots are actually occupied.
            for __ in range(2000):
                with gateway._state_lock:
                    if gateway._inflight >= gateway.config.admission_limit:
                        break
                time.sleep(0.005)
            status, __, data = client._request_once(
                "POST", "/ingest", body=body
            )
            assert status == 429
            assert b"AdmissionError" in data
            assert b'"retryable":true' in data
        finally:
            gateway._ingest_lock.release()
        for t in threads:
            t.join(timeout=30)
        health = client.health()
        assert health["shed_requests"] >= 1

    def test_deadline_expires_to_504_before_any_journalling(self, gateway, client):
        n_before = gateway.service.auditor.n_batches
        gateway._ingest_lock.acquire()
        try:
            status, __, data = client._request_once(
                "POST", "/ingest",
                body=b'{"id": "late", "deltas": []}',
                headers={"X-Repro-Deadline": "0.05"},
            )
        finally:
            gateway._ingest_lock.release()
        assert status == 504
        assert b"RequestDeadlineError" in data
        assert b'"retryable":true' in data
        # No durable effect: the retry would be clean.
        assert gateway.service.auditor.n_batches == n_before

    def test_expired_on_arrival_deadline_is_504(self, client):
        status, __, data = client._request_once(
            "POST", "/ingest",
            body=b'{"id": "x", "deltas": []}',
            headers={"X-Repro-Deadline": "-1"},
        )
        assert status == 504

    def test_unparsable_deadline_is_422(self, client):
        status, __, data = client.request(
            "POST", "/ingest",
            body=b'{"id": "x", "deltas": []}',
            headers={"X-Repro-Deadline": "soon"},
        )
        assert status == 422

    def test_nan_deadline_is_422(self, gateway, client):
        status, __, data = client._request_once(
            "POST", "/ingest",
            body=b'{"id": "x", "deltas": []}',
            headers={"X-Repro-Deadline": "nan"},
        )
        assert status == 422
        assert json.loads(data)["error"] == "DataError"
        assert gateway.service.auditor.n_batches == 0

    def test_non_numeric_content_length_is_422_and_closes(self, gateway):
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            )
            response = b""
            while chunk := sock.recv(65536):  # until the server closes
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 422 "), head
        payload = json.loads(body)
        assert payload["error"] == "DataError"
        assert "Content-Length" in payload["message"]


class TestHealthAndErrors:
    def test_health_embeds_the_exact_stream_status(self, gateway, client):
        client.ingest("b0", [insert(0, 0, 1)])
        health = client.health()
        assert health["status"] == "ok"
        assert health["acked_batches"] == 1
        assert health["inflight"] == 0
        assert health["admission_limit"] == 2
        assert health["stream"] == gateway.service.status()

    def test_unknown_endpoint_is_typed(self, client):
        status, __, data = client.request("GET", "/nope")
        assert status == 500
        assert b"ServeError" in data

    def test_no_registry_is_a_404(self, client):
        with pytest.raises(StoreError, match="no dataset registry"):
            client.list_datasets()

    def test_draining_gateway_rejects_new_requests(self, gateway, client):
        gateway._draining = True
        # 503 is retryable, so the no-retry client exhausts into transport.
        with pytest.raises(TransportError, match="503"):
            client.health()

    def test_rebuilt_errors_are_catchable_as_repro_error(self, client):
        with pytest.raises(ReproError):
            client.manifest("ghost")


class TestDrain:
    def test_stop_acks_an_in_flight_ingest_before_closing(
        self, tmp_path, monkeypatch
    ):
        """A drain joins the handler that is mid-ingest: the batch is
        journalled and acked before ``stop()`` returns and closes the
        service."""
        service = make_service(tmp_path / "stream")
        gw = AuditGateway(service)
        gw.start()
        client = GatewayClient(*gw.address, retry=NO_RETRY)
        entered = threading.Event()
        real_append = service.log.append_batch

        def slow_append(*args, **kwargs):
            entered.set()
            time.sleep(0.5)
            return real_append(*args, **kwargs)

        monkeypatch.setattr(service.log, "append_batch", slow_append)
        outcome: dict = {}

        def produce() -> None:
            try:
                outcome["ack"] = client.ingest("slow", [insert(0, 0, 1)])
            except ReproError as exc:
                outcome["error"] = exc

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        assert entered.wait(timeout=10)
        gw.stop()
        acked_when_stopped = gw._acked
        producer.join(timeout=10)
        assert acked_when_stopped == 1
        assert outcome.get("ack", {}).get("batch") == "slow", outcome
        reopened, __ = StreamService.open(tmp_path / "stream")
        try:
            assert "slow" in reopened.auditor.applied_ids
        finally:
            reopened.close()

    def test_a_stalled_client_cannot_hold_the_drain(self, tmp_path):
        """A connection that sent half a request times out after one
        deadline, so the drain that joins its thread still returns."""
        deadline = 1.0
        service = make_service(tmp_path / "stream")
        gw = AuditGateway(service, config=GatewayConfig(deadline_seconds=deadline))
        gw.start()
        stalled = socket.create_connection(gw.address)
        try:
            stalled.sendall(
                b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"id\""
            )
            time.sleep(0.1)  # the handler thread is now blocked on the body
            stopper = threading.Thread(target=gw.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=2 * deadline)
            assert not stopper.is_alive(), "stop() still blocked on a stalled client"
        finally:
            stalled.close()


class TestSlowClients:
    def test_a_stalled_body_gets_a_typed_408_and_a_closed_connection(
        self, tmp_path
    ):
        service = make_service(tmp_path / "stream")
        gw = AuditGateway(service, config=GatewayConfig(deadline_seconds=0.5))
        gw.start()
        try:
            with socket.create_connection(gw.address, timeout=10) as stalled:
                stalled.sendall(
                    b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"id\""
                )
                response = b""
                while chunk := stalled.recv(65536):  # until the server closes
                    response += chunk
        finally:
            gw.stop()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), head
        payload = json.loads(body)
        assert payload["error"] == "RequestTimeoutError"
        assert payload["status"] == 408 and payload["retryable"] is False
        assert service.log.outstanding_dead_letters() == []

    def test_a_reset_mid_body_never_reaches_handle_error(
        self, tmp_path, monkeypatch
    ):
        """A vanished client gets no response written at it, so the server
        records no handler fault and prints no traceback."""
        service = make_service(tmp_path / "stream")
        gw = AuditGateway(service)
        faults: list = []
        monkeypatch.setattr(
            gw.server, "handle_error", lambda request, address: faults.append(address)
        )
        reading = threading.Event()
        read_body = gw._read_body

        def signalled_read_body(handler):
            reading.set()
            return read_body(handler)

        monkeypatch.setattr(gw, "_read_body", signalled_read_body)
        gw.start()
        try:
            client = socket.create_connection(gw.address)
            client.sendall(
                b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"id\""
            )
            assert reading.wait(timeout=10)
            # A zero linger timeout makes close() send RST instead of FIN.
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.close()
        finally:
            gw.stop()  # joins the handler thread
        assert faults == []
        assert service.auditor.n_batches == 0


class _ReadyLineBuffer(io.BytesIO):
    """Stdout's byte layer: notes the SIGTERM handler at each write."""

    def __init__(self) -> None:
        super().__init__()
        self.sigterm_at_write: list = []

    def write(self, data) -> int:
        self.sigterm_at_write.append(signal.getsignal(signal.SIGTERM))
        return super().write(data)


class TestSignalHandlers:
    @pytest.fixture(autouse=True)
    def restore_handlers(self):
        saved = {s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)}
        yield
        for signum, handler in saved.items():
            signal.signal(signum, handler)

    def test_serve_installs_the_drain_handler_before_the_ready_line(
        self, tmp_path, monkeypatch
    ):
        make_service(tmp_path / "stream").close()
        served: list[AuditGateway] = []

        def run_once(self) -> None:  # serve nothing, release everything
            served.append(self)
            self.server.server_close()
            self.service.close()

        monkeypatch.setattr(AuditGateway, "run", run_once)
        buffer = _ReadyLineBuffer()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(buffer))
        assert main(["serve", str(tmp_path / "stream"), "--port", "0"]) == EXIT_OK
        # A SIGTERM sent the moment the ready line is read must drain.
        assert buffer.sigterm_at_write[0] == served[0]._drain_on_signal

    def test_install_is_idempotent_and_the_handler_drains(self, gateway):
        gateway.install_signal_handlers()
        gateway.install_signal_handlers()
        for signum in (signal.SIGTERM, signal.SIGINT):
            assert signal.getsignal(signum) == gateway._drain_on_signal
        signal.getsignal(signal.SIGTERM)(signal.SIGTERM, None)
        assert gateway._draining


class TestConfig:
    def test_invalid_knobs_raise_typed(self):
        with pytest.raises(ServeError, match="admission_limit"):
            GatewayConfig(admission_limit=0)
        with pytest.raises(ServeError, match="deadline_seconds"):
            GatewayConfig(deadline_seconds=0.0)

    def test_default_retry_backs_off_deterministically(self):
        schedule = DEFAULT_RETRY.schedule()
        assert len(schedule) == DEFAULT_RETRY.max_attempts - 1
        assert all(d > 0 for d in schedule)
        # Jittered but seeded: the same policy always sleeps the same amounts.
        assert schedule == DEFAULT_RETRY.schedule()


@pytest.fixture
def registry_gateway(tmp_path):
    """A gateway that also fronts a registry with one materialized store."""
    root = tmp_path / "registry"
    registry = Registry(root)
    sharded = registry.materialize(
        "compas", load_compas(n_rows=300, seed=3), shard_rows=100
    )
    sharded.close()
    service = make_service(tmp_path / "stream")
    gw = AuditGateway(service, registry=registry)
    gw.start()
    yield gw, registry
    gw.stop()


@pytest.fixture
def registry_client(registry_gateway):
    gw, __ = registry_gateway
    host, port = gw.address
    return GatewayClient(host, port, retry=NO_RETRY)


class TestFetchTier:
    def test_listing_matches_the_cli_json_payload(
        self, registry_gateway, registry_client
    ):
        __, registry = registry_gateway
        assert registry_client.list_datasets() == registry_payload(registry)

    def test_manifest_and_ref_resolve_over_http(
        self, registry_gateway, registry_client
    ):
        __, registry = registry_gateway
        manifest = registry_client.manifest("compas")
        assert manifest == read_manifest(registry.path_of("compas"))
        ref = registry_client.resolve_ref("compas")
        assert ref == {
            "name": "compas",
            "manifest_digest": manifest_digest(manifest),
            "n_rows": 300,
            "n_shards": 3,
        }

    def test_fetch_installs_a_verified_byte_identical_store(
        self, registry_gateway, registry_client, tmp_path
    ):
        __, registry = registry_gateway
        dest = registry_client.fetch_dataset("compas", tmp_path / "local")
        verify_store(dest)
        assert manifest_digest(read_manifest(dest)) == manifest_digest(
            read_manifest(registry.path_of("compas"))
        )
        # Every shard file arrived byte-identical.
        for shard in read_manifest(dest)["shards"]:
            for fname in shard["files"]:
                local = (dest / shard["dir"] / fname).read_bytes()
                remote = (
                    registry.path_of("compas") / shard["dir"] / fname
                ).read_bytes()
                assert local == remote
        # No .tmp-* droppings left behind.
        assert not list(dest.parent.glob(".tmp-*"))

    def test_fetch_installs_a_format_1_store_as_is(
        self, registry_gateway, registry_client, tmp_path
    ):
        """Files travel byte for byte, so a format-1 store keeps its version."""
        __, registry = registry_gateway
        fixture = Path(__file__).parent / "fixtures" / "store_v1"
        shutil.copytree(fixture, registry.path_of("legacy"))
        dest = registry_client.fetch_dataset("legacy", tmp_path / "local")
        verify_store(dest)
        assert read_manifest(dest) == read_manifest(fixture)
        assert read_manifest(dest)["format_version"] == 1
        with ShardedDataset.open(dest) as local:
            pos, neg, __ = local.region_counts(local.protected)
            mpos, mneg, __ = local.to_dataset().region_counts(local.protected)
            assert np.array_equal(pos, mpos) and np.array_equal(neg, mneg)

    def test_fetch_fsyncs_the_destination_after_the_rename(
        self, registry_client, tmp_path, dir_fsynced
    ):
        dest = registry_client.fetch_dataset("compas", tmp_path / "local")
        assert dir_fsynced(dest)

    def test_refetch_at_same_digest_is_skipped(
        self, registry_client, tmp_path
    ):
        first = registry_client.fetch_dataset("compas", tmp_path / "local")
        marker = first / "marker"
        marker.write_text("untouched")
        second = registry_client.fetch_dataset("compas", tmp_path / "local")
        assert second == first
        assert marker.read_text() == "untouched"  # nothing was re-installed

    def test_stale_local_copy_is_replaced(self, registry_client, tmp_path):
        dest = registry_client.fetch_dataset("compas", tmp_path / "local")
        manifest_path = dest / "manifest.json"
        manifest_path.write_text("{broken")
        again = registry_client.fetch_dataset("compas", tmp_path / "local")
        assert again == dest
        verify_store(again)

    def test_missing_shard_file_is_typed(self, registry_client):
        status, __, data = registry_client.request(
            "GET", "/datasets/compas/files/shard-99999/nope.npy"
        )
        assert status == 404
        assert b"StoreError" in data

    def test_unknown_dataset_is_a_404(self, registry_client):
        with pytest.raises(StoreError, match="gateway:"):
            registry_client.manifest("ghost")
