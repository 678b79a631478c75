"""Sweep checkpoints: atomic persistence of completed cells.

A checkpoint is one JSON document recording, per completed cell, the
JSON-encoded cell value and how many attempts it took.  Every ``record``
rewrites the whole document via :func:`repro.data.io.atomic_write_json`
(write temp file, fsync, ``os.replace``), so a sweep killed at *any*
instant — including mid-write — leaves either the previous checkpoint or
the new one on disk, never a truncated file.  The document carries a
``run_id`` fingerprinting the sweep configuration; resuming against a
checkpoint written by a differently-configured sweep raises
:class:`~repro.errors.CheckpointError` instead of silently mixing results.

Degraded cells (``FAILED``/``TIMEOUT`` markers) are persisted too, via
:meth:`Checkpoint.record_failure`, so ``repro checkpoint inspect`` can
report done/failed counts — but :meth:`Checkpoint.get` only restores
*successful* payloads, so a failed cell is re-attempted on resume exactly
as before.  All writes happen in the driver process (single writer): the
process backend funnels worker results back to the parent, which flushes
here once per completed cell.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.data.io import atomic_write_json
from repro.errors import CheckpointError
from repro.obs.manifest import config_hash

CHECKPOINT_VERSION = 1

#: ``status`` recorded for successful cells (absent means ok, for
#: backwards compatibility with version-1 files written before failures
#: were persisted).
CELL_OK = "ok"


def sweep_run_id(**params: object) -> str:
    """Stable fingerprint of a sweep configuration.

    :func:`~repro.obs.manifest.config_hash` of the keyword arguments: any
    JSON-representable values work, and non-JSON values fall back to
    ``str``.  The same parameters always hash to the same id, so a
    ``--resume`` against a checkpoint from a different sweep is rejected.
    """
    return config_hash(params)


class Checkpoint:
    """Durable map from cell key to its recorded completion payload.

    Parameters
    ----------
    path:
        Checkpoint file location; created on the first ``record``.
    run_id:
        Sweep fingerprint (see :func:`sweep_run_id`).  An existing file
        with a different ``run_id`` raises
        :class:`~repro.errors.CheckpointError` when ``resume`` is set.
    resume:
        When True (the default) an existing file is loaded and its cells
        become restorable; when False an existing file is ignored and will
        be overwritten by the first ``record``.
    """

    def __init__(self, path: str | Path, run_id: str, resume: bool = True) -> None:
        self.path = Path(path)
        self.run_id = str(run_id)
        self._cells: dict[tuple[str, ...], dict] = {}
        if resume and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or "cells" not in payload:
            raise CheckpointError(
                f"checkpoint {self.path} is malformed: missing 'cells'"
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has version {payload.get('version')!r}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        if payload.get("run_id") != self.run_id:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to run "
                f"{payload.get('run_id')!r}, not {self.run_id!r} — it was "
                "written by a sweep with a different configuration"
            )
        cells = payload["cells"]
        if not isinstance(cells, list):
            raise CheckpointError(
                f"checkpoint {self.path} is malformed: 'cells' not a list"
            )
        for entry in cells:
            try:
                key = tuple(str(part) for part in entry["key"])
                if entry.get("status", CELL_OK) == CELL_OK:
                    entry["value"]
            except (TypeError, KeyError) as exc:
                raise CheckpointError(
                    f"checkpoint {self.path} has a malformed cell: {entry!r}"
                ) from exc
            self._cells[key] = dict(entry)

    # -- queries -------------------------------------------------------------
    def get(self, key: Sequence[str]) -> dict | None:
        """The recorded *successful* payload for ``key``, or None.

        Failed/timed-out entries (see :meth:`record_failure`) return None
        so the cell is re-attempted on resume.
        """
        payload = self._cells.get(tuple(str(part) for part in key))
        if payload is None or payload.get("status", CELL_OK) != CELL_OK:
            return None
        return payload

    def __contains__(self, key: Sequence[str]) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._cells)

    def keys(self) -> tuple[tuple[str, ...], ...]:
        """All recorded cell keys (done and failed), sorted."""
        return tuple(sorted(self._cells))

    @property
    def n_done(self) -> int:
        """Number of recorded cells that completed successfully."""
        return sum(
            1
            for payload in self._cells.values()
            if payload.get("status", CELL_OK) == CELL_OK
        )

    @property
    def n_failed(self) -> int:
        """Number of recorded cells that degraded into FAILED/TIMEOUT."""
        return len(self._cells) - self.n_done

    # -- updates -------------------------------------------------------------
    def record(self, key: Sequence[str], payload: dict) -> None:
        """Record the completion payload of ``key`` and flush to disk."""
        cell_key = tuple(str(part) for part in key)
        entry = dict(payload)
        entry["key"] = list(cell_key)
        self._cells[cell_key] = entry
        self.flush()

    def record_failure(
        self,
        key: Sequence[str],
        status: str,
        error_type: str | None,
        error_message: str | None,
        attempts: int,
    ) -> None:
        """Record a degraded cell (for inspection; re-run on resume)."""
        cell_key = tuple(str(part) for part in key)
        self._cells[cell_key] = {
            "key": list(cell_key),
            "status": str(status),
            "error_type": error_type,
            "error_message": error_message,
            "attempts": int(attempts),
        }
        self.flush()

    def flush(self) -> None:
        """Atomically rewrite the checkpoint file from the in-memory state."""
        doc = {
            "version": CHECKPOINT_VERSION,
            "run_id": self.run_id,
            "cells": [self._cells[key] for key in sorted(self._cells)],
        }
        atomic_write_json(self.path, doc)


# -- maintenance (``repro checkpoint`` CLI) ---------------------------------


def inspect_checkpoint(path: str | Path) -> dict:
    """Summarise a checkpoint file without binding to a run configuration.

    Returns a dict with ``path``, ``version``, ``run_id`` (the sweep's
    config hash), ``n_cells`` / ``n_done`` / ``n_failed``, the failed cell
    keys, and ``age_seconds`` since the file was last written.  Raises
    :class:`~repro.errors.CheckpointError` for unreadable or malformed
    files.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        mtime = path.stat().st_mtime
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("cells"), list):
        raise CheckpointError(f"checkpoint {path} is malformed: missing 'cells'")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {payload.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    cells = payload["cells"]
    failed_keys = []
    n_done = 0
    for entry in cells:
        if not isinstance(entry, dict) or "key" not in entry:
            raise CheckpointError(f"checkpoint {path} has a malformed cell: {entry!r}")
        if entry.get("status", CELL_OK) == CELL_OK:
            n_done += 1
        else:
            failed_keys.append("/".join(str(part) for part in entry["key"]))
    return {
        "path": str(path),
        "version": CHECKPOINT_VERSION,
        "run_id": str(payload.get("run_id")),
        "n_cells": len(cells),
        "n_done": n_done,
        "n_failed": len(failed_keys),
        "failed": sorted(failed_keys),
        "age_seconds": max(time.time() - mtime, 0.0),
    }


def prune_checkpoints(
    paths: Iterable[str | Path], keep_latest: int = 1
) -> tuple[Path, ...]:
    """Delete all but the ``keep_latest`` most recently written checkpoints.

    ``paths`` may mix files and directories; directories contribute their
    ``*.json`` files.  Only files that parse as version-:data:`CHECKPOINT_VERSION`
    checkpoints are considered (anything else is left untouched), recency
    is file mtime, and the deleted paths are returned sorted.
    """
    if keep_latest < 0:
        raise CheckpointError(f"keep_latest must be >= 0, got {keep_latest}")
    candidates: list[Path] = []
    for raw in paths:
        entry = Path(raw)
        if entry.is_dir():
            candidates.extend(sorted(entry.glob("*.json")))
        else:
            candidates.append(entry)
    checkpoints: list[tuple[float, Path]] = []
    for candidate in candidates:
        try:
            payload = json.loads(candidate.read_text())
            mtime = candidate.stat().st_mtime
        except (OSError, json.JSONDecodeError):
            continue
        if (
            isinstance(payload, dict)
            and payload.get("version") == CHECKPOINT_VERSION
            and isinstance(payload.get("cells"), list)
        ):
            checkpoints.append((mtime, candidate))
    checkpoints.sort(key=lambda item: (item[0], str(item[1])), reverse=True)
    stale = [path for _, path in checkpoints[keep_latest:]]
    for path in stale:
        path.unlink()
    return tuple(sorted(stale))
