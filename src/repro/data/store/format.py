"""On-disk format for sharded datasets: layout constants, manifest, hashing.

A store is a directory::

    <name>/
      manifest.json          # format version, schema, column dtypes, row
                             # ranges, file hashes
      shard-00000/
        c0000.npy            # column 0 of the schema, rows [start, stop)
        c0001.npy
        y.npy                # int8 labels for the shard's rows
      shard-00001/
        ...

Column files are plain ``.npy`` arrays named by schema column *index* (so
arbitrary column names never reach the filesystem).  Format 2 writes each
categorical column at the narrowest unsigned dtype that holds its codes
(:func:`column_dtypes`) and records the dtypes in the manifest; format 1
wrote every categorical column as ``int64`` and is still read.  Files are
opened lazily with ``mmap_mode="r"`` — this module is the single sanctioned
place that memory-maps store files (rule R015 flags raw
``np.load(..., mmap_mode=...)`` anywhere else).  The manifest is JSON written through the same
``atomic_write_json`` machinery as schemas and checkpoints, and records a
sha256 + byte size per file plus a hash of the schema block, so
``repro data verify`` can prove a store byte-identical to what was written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.data.io import atomic_write_json, canonical_json
from repro.data.schema import Schema
from repro.data.schema_io import schema_from_dict, schema_to_dict
from repro.errors import SchemaError, StoreCorruptionError, StoreError

FORMAT_VERSION = 2
#: Format versions this build opens: 1 (``int64`` codes) and 2.
READ_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
LABELS_FILE = "y.npy"


def shard_dir_name(index: int) -> str:
    """Directory name of shard ``index`` (``shard-00000``, ``shard-00001``...)."""
    return f"shard-{index:05d}"


def column_file_name(index: int) -> str:
    """File name of the schema column at position ``index`` within a shard."""
    return f"c{index:04d}.npy"


def column_dtypes(schema: Schema) -> tuple[np.dtype, ...]:
    """The dtype format 2 stores each schema column at.

    A categorical column takes ``np.min_scalar_type(cardinality - 1)``
    (``uint8`` up to 256 values, then ``uint16``...); a numeric one
    ``float64``.
    """
    return tuple(
        np.min_scalar_type(col.cardinality - 1)
        if col.is_categorical
        else np.dtype(np.float64)
        for col in schema
    )


def schema_digest(schema: Schema, protected: Iterable[str]) -> str:
    """sha256 of the canonical schema + protected-set JSON block."""
    payload = schema_to_dict(schema, tuple(protected))
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def manifest_digest(manifest: Mapping[str, object]) -> str:
    """sha256 of a manifest's canonical JSON — the identity a ``StoreRef``
    pins so workers can detect a store rewritten under them."""
    return hashlib.sha256(canonical_json(dict(manifest)).encode()).hexdigest()


def file_sha256(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Streaming sha256 of a file's bytes (never loads the file whole)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk_size)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def load_array(path: str | Path, *, mmap: bool = True) -> np.ndarray:
    """Open one store ``.npy`` file, memory-mapped read-only by default.

    This is the sanctioned wrapper around ``np.load(..., mmap_mode="r")``:
    pages are faulted in on access and released when the returned array is
    garbage-collected, which is what keeps :class:`ShardedDataset`'s resident
    set bounded by one shard.  Integrity is *not* checked here — a bit-flipped
    file still loads; ``Registry.verify`` is the integrity gate.
    """
    try:
        return np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    except FileNotFoundError as exc:
        raise StoreCorruptionError(f"shard file {path} is missing") from exc
    except ValueError as exc:
        raise StoreCorruptionError(f"shard file {path} is not a valid .npy: {exc}") from exc


def save_array(path: str | Path, array: np.ndarray) -> None:
    """Write one store ``.npy`` file (plain ``np.save``, no pickling)."""
    with open(path, "wb") as fh:
        np.save(fh, array, allow_pickle=False)


def write_manifest(directory: str | Path, manifest: Mapping[str, object]) -> None:
    """Atomically write ``manifest.json`` into a store directory."""
    atomic_write_json(Path(directory) / MANIFEST_NAME, dict(manifest))


def build_manifest(
    schema: Schema,
    protected: tuple[str, ...],
    shards: list[dict],
    shard_rows: int,
    source: Mapping[str, object] | None = None,
) -> dict:
    """Assemble a manifest dict from per-shard entries produced by the writer."""
    n_rows = shards[-1]["stop"] if shards else 0
    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "schema": schema_to_dict(schema, protected),
        "schema_sha256": schema_digest(schema, protected),
        "column_dtypes": [dtype.name for dtype in column_dtypes(schema)],
        "n_rows": int(n_rows),
        "shard_rows": int(shard_rows),
        "shards": shards,
    }
    if source is not None:
        manifest["source"] = dict(source)
    return manifest


def read_manifest(directory: str | Path) -> dict:
    """Read and structurally validate a store's ``manifest.json``.

    Raises :class:`~repro.errors.StoreError` when the file is absent, not a
    store manifest or of a format version this build does not read, and
    :class:`~repro.errors.StoreCorruptionError` when the structure is present
    but internally inconsistent (schema hash mismatch, column dtypes that
    disagree with the schema, non-contiguous row ranges).
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise StoreError(f"{directory} is not a dataset store (no {MANIFEST_NAME})")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StoreCorruptionError(f"{path} must hold a JSON object")
    version = manifest.get("format_version")
    if version not in READ_VERSIONS:
        raise StoreError(
            f"{path}: format_version {version!r} is not supported "
            f"(this build reads versions {', '.join(map(str, READ_VERSIONS))})"
        )
    keys = ("schema", "schema_sha256", "n_rows", "shard_rows", "shards")
    if version >= 2:
        keys += ("column_dtypes",)
    for key in keys:
        if key not in manifest:
            raise StoreCorruptionError(f"{path}: manifest is missing {key!r}")
    validate_manifest(manifest, path)
    return manifest


def validate_manifest(manifest: Mapping[str, object], origin: object = "manifest") -> tuple[Schema, tuple[str, ...]]:
    """Check a manifest's internal consistency; return ``(schema, protected)``.

    Verifies the schema block parses, the recorded schema hash matches a
    recomputation, the recorded column dtypes (format 2) are the ones the
    schema implies, and the shard row ranges tile ``[0, n_rows)``
    contiguously.
    """
    try:
        schema, protected = schema_from_dict(manifest["schema"])
    except SchemaError as exc:
        raise StoreCorruptionError(f"{origin}: bad schema block: {exc}") from exc
    expected = schema_digest(schema, protected)
    if manifest["schema_sha256"] != expected:
        raise StoreCorruptionError(
            f"{origin}: schema_sha256 {manifest['schema_sha256']!r} does not "
            f"match the schema block (expected {expected})"
        )
    if "column_dtypes" in manifest:
        dtypes = [dtype.name for dtype in column_dtypes(schema)]
        if manifest["column_dtypes"] != dtypes:
            raise StoreCorruptionError(
                f"{origin}: column_dtypes {manifest['column_dtypes']!r} do not "
                f"match the schema (expected {dtypes})"
            )
    shards = manifest["shards"]
    if not isinstance(shards, list):
        raise StoreCorruptionError(f"{origin}: 'shards' must be a list")
    cursor = 0
    for i, entry in enumerate(shards):
        for key in ("dir", "start", "stop", "files"):
            if key not in entry:
                raise StoreCorruptionError(f"{origin}: shard {i} is missing {key!r}")
        if entry["start"] != cursor or entry["stop"] < entry["start"]:
            raise StoreCorruptionError(
                f"{origin}: shard {i} covers rows [{entry['start']}, "
                f"{entry['stop']}) but the previous shard ended at {cursor}"
            )
        cursor = entry["stop"]
    if cursor != manifest["n_rows"]:
        raise StoreCorruptionError(
            f"{origin}: shards cover {cursor} rows but n_rows is {manifest['n_rows']}"
        )
    return schema, protected


__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "LABELS_FILE",
    "column_dtypes",
    "shard_dir_name",
    "column_file_name",
    "canonical_json",
    "schema_digest",
    "manifest_digest",
    "file_sha256",
    "load_array",
    "save_array",
    "write_manifest",
    "build_manifest",
    "read_manifest",
    "validate_manifest",
]
