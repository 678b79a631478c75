"""Retrying gateway client: idempotent ingest and verified dataset fetch.

The client is the other half of the gateway's fault contract:

* **Typed retries** — transport faults (connection refused, reset, short
  read) become :class:`~repro.errors.TransportError`; those and the
  retryable status codes (:data:`~repro.serve.protocol.RETRYABLE_STATUSES`:
  429 shed, 503 draining/breaker, 504 deadline) are retried on the
  deterministic jittered backoff of
  :class:`~repro.resilience.RetryPolicy` — the same request, same
  idempotency key, every time.  Everything else surfaces immediately as
  the typed error the server named (reconstructed from the error payload),
  so a 422 poison batch is *not* hammered.
* **Exactly-once effect** — the batch id is the idempotency key.  A retry
  of a batch the server already journalled (the ack was lost, not the
  batch) comes back as a cheap ``"duplicate": true`` ack.  The
  ``serve-chaos`` drills (see "Chaos drills" in ``docs/resilience.md``)
  kill the server between journal and ack and assert the retry loop
  converges with zero double-applies.
* **Verified fetch** — :meth:`GatewayClient.fetch_dataset` mirrors the
  registry's own crash-safe install: shard files download into a
  ``.tmp-*`` sibling, every file is re-hashed against the manifest's
  sha256 ledger *on the client side*, the manifest is written last, and
  the directory is renamed into place only then.  A fetch killed at any
  byte leaves either nothing or a ``.tmp-*`` orphan the registry's
  ``prune`` removes — never a half-installed store — and a store already
  present at the right manifest digest is skipped without moving bytes.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import time
from pathlib import Path
from typing import Sequence

from repro import errors
from repro.data.io import fsync_dir
from repro.data.store.format import (
    file_sha256,
    manifest_digest,
    read_manifest,
    write_manifest,
)
from repro.data.store.registry import TMP_PREFIX, verify_store
from repro.errors import StoreCorruptionError, TransportError
from repro.obs import trace as obs
from repro.resilience import RetryPolicy
from repro.serve.gateway import DEADLINE_HEADER, SHA_HEADER
from repro.serve.protocol import RETRYABLE_STATUSES
from repro.stream.deltas import Delta

#: Default client policy: 5 attempts, short jittered exponential backoff.
DEFAULT_RETRY = RetryPolicy(max_attempts=5, base_delay=0.05, jitter=0.5)


def _rebuild_error(status: int, body: bytes) -> Exception:
    """The typed error a gateway error payload names, rebuilt client-side."""
    try:
        payload = json.loads(body)
        name = payload["error"]
        message = payload["message"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return TransportError(
            f"gateway returned HTTP {status} with an unreadable error body"
        )
    klass = getattr(errors, str(name), None)
    if not (isinstance(klass, type) and issubclass(klass, errors.ReproError)):
        klass = errors.ReproError
    return klass(f"gateway: {message}")


class GatewayClient:
    """HTTP client for one :class:`~repro.serve.gateway.AuditGateway`."""

    def __init__(
        self,
        host: str,
        port: int,
        retry: RetryPolicy | None = None,
        timeout: float = 30.0,
    ):
        self.host = host
        self.port = int(port)
        self.retry = retry or DEFAULT_RETRY
        self.timeout = timeout

    # -- transport ---------------------------------------------------------------
    def _request_once(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One connection, one request; transport faults become typed."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            data = response.read()  # IncompleteRead on a mid-body crash
            return response.status, dict(response.getheaders()), data
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(
                f"{method} {path} to {self.host}:{self.port} failed in "
                f"transport: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """Request with retries on transport faults and retryable statuses.

        Retries re-send the identical request — safe because every write
        endpoint is idempotent by batch id.  Returns the first
        non-retryable response; raises :class:`~repro.errors.TransportError`
        when every attempt failed or was shed.
        """
        last: str = "no attempt made"
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                status, resp_headers, data = self._request_once(
                    method, path, body=body, headers=headers
                )
            except TransportError as exc:
                last = str(exc)
                obs.count("serve.client_transport_faults")
            else:
                if status not in RETRYABLE_STATUSES:
                    return status, resp_headers, data
                last = f"HTTP {status}: {data[:200]!r}"
                obs.count("serve.client_retryable_statuses")
            if attempt < self.retry.max_attempts:
                delay = self.retry.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
        raise TransportError(
            f"{method} {path} still failing after "
            f"{self.retry.max_attempts} attempt(s); last: {last}"
        )

    def _json(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        status, _, data = self.request(method, path, body=body, headers=headers)
        if status != 200:
            raise _rebuild_error(status, data)
        return json.loads(data)

    # -- endpoints ---------------------------------------------------------------
    def health(self) -> dict:
        """``GET /health``."""
        return self._json("GET", "/health")

    def ingest(
        self,
        batch_id: str,
        deltas: Sequence[Delta],
        deadline: float | None = None,
    ) -> dict:
        """Submit one delta batch; retries ride the batch-id idempotency key."""
        body = json.dumps(
            {"id": batch_id, "deltas": [d.to_record() for d in deltas]}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if deadline is not None:
            headers[DEADLINE_HEADER] = repr(float(deadline))
        return self._json("POST", "/ingest", body=body, headers=headers)

    def list_datasets(self) -> dict:
        """``GET /datasets``."""
        return self._json("GET", "/datasets")

    def manifest(self, name: str) -> dict:
        """``GET /datasets/<name>`` — the store's manifest document."""
        return self._json("GET", f"/datasets/{name}")

    def resolve_ref(self, name: str) -> dict:
        """``GET /datasets/<name>/ref`` — StoreRef identity over HTTP."""
        return self._json("GET", f"/datasets/{name}/ref")

    # -- the fetch tier ----------------------------------------------------------
    def _fetch_file(
        self, name: str, shard_dir: str, fname: str, dest: Path, expect: dict
    ) -> int:
        """Download one shard file into ``dest`` and verify it against the
        manifest entry (size and sha256) before anyone can read it."""
        status, headers, data = self.request(
            "GET", f"/datasets/{name}/files/{shard_dir}/{fname}"
        )
        if status != 200:
            raise _rebuild_error(status, data)
        claimed = headers.get(SHA_HEADER)
        if len(data) != int(expect["nbytes"]):
            raise TransportError(
                f"short read of {shard_dir}/{fname}: got {len(data)} of "
                f"{expect['nbytes']} bytes"
            )
        dest.write_bytes(data)
        digest = file_sha256(dest)
        if digest != expect["sha256"] or (claimed and claimed != digest):
            dest.unlink()
            raise StoreCorruptionError(
                f"fetched {shard_dir}/{fname} hashes to {digest}, manifest "
                f"says {expect['sha256']} (header said {claimed}); refusing "
                "to install"
            )
        return len(data)

    def fetch_dataset(self, name: str, dest_root: str | Path) -> Path:
        """Fetch the named store into ``dest_root/name``, crash-safely.

        Same install discipline as the registry's own writer: bytes land
        in a ``.tmp-*`` sibling, each file is verified against the
        manifest's sha256 on arrival, the manifest is written **last**,
        and only a fully verified tree is renamed into place, with
        ``dest_root`` fsynced after.  A local copy already at the remote
        manifest digest short-circuits.
        """
        dest_root = Path(dest_root)
        dest_root.mkdir(parents=True, exist_ok=True)
        manifest = self.manifest(name)
        digest = manifest_digest(manifest)
        final = dest_root / name
        if final.is_dir():
            try:
                if manifest_digest(read_manifest(final)) == digest:
                    obs.count("serve.fetch_skipped")
                    return final
            except errors.StoreError:
                pass  # unreadable local copy: refetch over it
        tmp = dest_root / f"{TMP_PREFIX}{name}-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        nbytes = 0
        with obs.span("serve.fetch", dataset=name):
            for shard in manifest["shards"]:
                shard_path = tmp / shard["dir"]
                shard_path.mkdir()
                for fname, meta in shard["files"].items():
                    nbytes += self._fetch_file(
                        name, shard["dir"], fname, shard_path / fname, meta
                    )
            write_manifest(tmp, manifest)  # manifest last: tmp is now whole
            if final.is_dir():
                shutil.rmtree(final)  # digest mismatch: replace the stale copy
            os.rename(tmp, final)
            fsync_dir(dest_root)
        verify_store(final)
        obs.count("serve.fetch_bytes", nbytes)
        return final


__all__ = ["DEFAULT_RETRY", "GatewayClient"]
