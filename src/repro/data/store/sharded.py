"""Out-of-core sharded dataset: a :class:`Dataset` whose chunks live on disk.

:class:`ShardedDataset` is a :class:`~repro.data.Dataset` whose chunks are
the store's shards, so the IBS engines, the hierarchy, ``remedy_dataset``
and the ranker run on it unmodified.  A :class:`DiskShard` memory-maps its
``.npy`` column files per access and drops the mapping when the reducing
loop moves on, so peak RSS is bounded by the shard size, not the dataset
size.  The count kernel reads categorical files at the width they are
stored; ``column`` widens them to ``int64``, as in memory.

Edits are the dataset's, copy-on-write per chunk: ``drop``/``take`` with a
boolean mask reuse every untouched shard object, and ``with_labels`` gives
each shard replacement labels without touching its column files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset, MemoryChunk
from repro.data.store.format import (
    LABELS_FILE,
    column_file_name,
    load_array,
    manifest_digest,
    read_manifest,
    validate_manifest,
)
from repro.errors import StoreCorruptionError, StoreError


class DiskShard:
    """One on-disk shard; every access re-opens the backing ``.npy`` lazily.

    Nothing is cached here on purpose: a memory-mapped array holds its pages
    in the resident set for as long as it is alive, so the way a 10⁷-row scan
    stays inside a fixed memory budget is precisely that each shard's maps die
    before the next shard's are created.  ``cards`` holds each schema
    column's cardinality (``None`` for a numeric column): codes read from a
    file are checked against it, because a code out of range would
    otherwise be counted in another cell.  ``y``, when given, replaces the
    stored labels (``with_labels`` never touches the column files).
    """

    __slots__ = ("directory", "n_rows", "cards", "_y")

    def __init__(
        self,
        directory: str | Path,
        n_rows: int,
        cards: Sequence[int | None],
        y: np.ndarray | None = None,
    ):
        self.directory = Path(directory)
        self.n_rows = int(n_rows)
        self.cards = tuple(cards)
        self._y = y

    def column(self, index: int) -> np.ndarray:
        """Schema column ``index`` for this shard, categorical codes as
        ``int64``: the memory map itself when the file is already that wide
        (numeric columns and format-1 stores), else a widened copy."""
        if self.cards[index] is None:
            return self._load(column_file_name(index), mmap=True)
        return self.codes(index).astype(np.int64, copy=False)

    def codes(self, index: int) -> np.ndarray:
        """Memory-mapped categorical column ``index`` at its stored width.

        Raises :class:`~repro.errors.StoreCorruptionError` naming the file
        when it holds a code outside ``[0, cardinality)``.
        """
        name = column_file_name(index)
        arr = self._load(name, mmap=True)
        card = self.cards[index]
        if arr.dtype.kind not in "iu":
            raise StoreCorruptionError(
                f"shard file {self.directory / name} holds {arr.dtype} values, "
                "not integer codes"
            )
        _require_below(arr, card, self.directory / name, "code")
        return arr

    def labels(self) -> np.ndarray:
        """This shard's int8 labels (loaded, not mapped — they are tiny)."""
        if self._y is not None:
            return self._y
        y = self._load(LABELS_FILE, mmap=False).astype(np.int8, copy=False)
        _require_below(y, 2, self.directory / LABELS_FILE, "label")
        return y

    def relabeled(self, y: np.ndarray) -> "DiskShard":
        """The same column files under replacement labels ``y``."""
        return DiskShard(self.directory, self.n_rows, self.cards, y)

    def _load(self, name: str, mmap: bool) -> np.ndarray:
        path = self.directory / name
        arr = load_array(path, mmap=mmap)
        if arr.shape != (self.n_rows,):
            raise StoreCorruptionError(
                f"shard file {path} has shape {arr.shape}, "
                f"expected ({self.n_rows},)"
            )
        return np.asarray(arr)


def _require_below(arr: np.ndarray, bound: int, path: Path, what: str) -> None:
    """Raise naming ``path`` unless every value of ``arr`` is in
    ``[0, bound)``.  One pass: viewed unsigned, a negative value is huge."""
    if not arr.size:
        return
    unsigned = arr.view(np.dtype(f"u{arr.dtype.itemsize}"))
    if unsigned.max() >= bound:
        row = int(np.flatnonzero(unsigned >= bound)[0])
        raise StoreCorruptionError(
            f"shard file {path} has {what} {int(arr[row])} at row {row}, "
            f"outside [0, {bound})"
        )


class ShardedDataset(Dataset):
    """A dataset over a store's shards, reduced lazily shard by shard.

    Instances opened from disk via :meth:`open` carry ``path`` and
    ``manifest`` and can be shipped to pool workers as a :class:`StoreRef`;
    any edit returns a ``ShardedDataset`` with ``path=None`` (it no longer
    denotes the stored bytes).  Aggregations (``region_counts``, ``mask``,
    ``counts``) stream shard by shard; ``column``/``y``/``labels_of``/
    ``feature_matrix``/``to_dataset`` concatenate.
    """

    path: Path | None = None
    manifest: dict | None = None
    _lease: Path | None = None

    # -- construction ---------------------------------------------------------
    @classmethod
    def open(cls, path: str | Path) -> "ShardedDataset":
        """Open a store directory written by the registry/materialiser.

        Reads and validates the manifest, then builds lazy :class:`DiskShard`
        handles — no column file is touched until something reduces over it.
        """
        path = Path(path)
        manifest = read_manifest(path)
        schema, protected = validate_manifest(manifest)
        cards = [c.cardinality if c.is_categorical else None for c in schema]
        shards = [
            DiskShard(path / entry["dir"], entry["stop"] - entry["start"], cards)
            for entry in manifest["shards"]
        ]
        dataset = cls._from_chunks(schema, shards, protected)
        dataset.path, dataset.manifest = path, manifest
        return dataset

    @classmethod
    def from_dataset(cls, dataset: Dataset, shard_rows: int) -> "ShardedDataset":
        """Split an in-memory dataset into memory chunks of ``shard_rows``.

        Used by tests and the property suite; the arrays are sliced views,
        not copies.
        """
        _require_shard_rows(shard_rows)
        columns = [dataset.column(name) for name in dataset.schema.names]
        y = dataset.y
        chunks = [
            MemoryChunk(
                [arr[start : start + shard_rows] for arr in columns],
                y[start : start + shard_rows],
            )
            for start in range(0, dataset.n_rows, shard_rows)
        ]
        return cls._from_chunks(dataset.schema, chunks, dataset.protected)

    # -- shard geometry --------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._chunks)

    @property
    def shard_ranges(self) -> tuple[tuple[int, int], ...]:
        """Global ``(start, stop)`` row range of each shard."""
        return tuple(zip(self._offsets, self._offsets[1:]))

    def shard_region_counts(
        self, shard_indices: Sequence[int], attrs: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Partial :meth:`region_counts` over only the listed shards.

        The shard-granular work unit the process pool fans out: summing the
        partials of a disjoint shard cover equals the full ``region_counts``.
        """
        indices = [int(i) for i in shard_indices]
        for i in indices:
            if not 0 <= i < len(self._chunks):
                raise StoreError(
                    f"shard index {i} out of range; dataset has "
                    f"{len(self._chunks)} shards"
                )
        return self._reduce_counts(indices, attrs)

    def to_dataset(self) -> Dataset:
        """Materialise into a plain one-chunk :class:`Dataset`.

        The columns are concatenated into memory.  A single-shard store's
        columns that are stored ``int64``/``float64`` (numeric columns, and
        every column of a format-1 store) stay read-only memory-mapped views;
        narrower categorical files are widened into memory.
        """
        return Dataset(
            self.schema,
            {name: self.column(name) for name in self.schema.names},
            self.y,
            self.protected,
        )

    # -- registry plumbing -----------------------------------------------------
    def store_ref(self) -> "StoreRef":
        """Picklable handle for shipping this store to pool workers.

        Only valid for a dataset opened straight from disk (edits detach it
        from the stored bytes and raise :class:`~repro.errors.StoreError`).
        """
        if self.path is None or self.manifest is None:
            raise StoreError(
                "only a dataset opened from a store can be shipped as a "
                "StoreRef; this one has in-memory edits or no backing path"
            )
        return StoreRef(
            path=str(self.path),
            digest=manifest_digest(self.manifest),
            n_rows=self.n_rows,
            n_shards=self.n_shards,
        )

    def close(self) -> None:
        """Release the registry lease held by this handle, if any."""
        if self._lease is not None:
            lease, self._lease = self._lease, None
            try:
                lease.unlink()
            except OSError:
                pass

    def __enter__(self) -> "ShardedDataset":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class StoreRef:
    """Content-pinned handle to an on-disk store, cheap to pickle.

    The worker side resolves it with :func:`open_store_ref`, which re-reads
    the manifest and refuses to attach if the manifest digest changed — a
    store rewritten under a running sweep is an error, not silent skew.
    """

    __slots__ = ("path", "digest", "n_rows", "n_shards")

    def __init__(self, path: str, digest: str, n_rows: int, n_shards: int):
        self.path = path
        self.digest = digest
        self.n_rows = int(n_rows)
        self.n_shards = int(n_shards)

    def __repr__(self) -> str:
        return (
            f"StoreRef(path={self.path!r}, n_rows={self.n_rows}, "
            f"n_shards={self.n_shards}, digest={self.digest[:12]}...)"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StoreRef)
            and other.path == self.path
            and other.digest == self.digest
        )

    def __hash__(self) -> int:
        return hash((self.path, self.digest))

    def __getstate__(self) -> dict:
        return {
            "path": self.path,
            "digest": self.digest,
            "n_rows": self.n_rows,
            "n_shards": self.n_shards,
        }

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)


_OPENED: dict[tuple[str, str], ShardedDataset] = {}


def open_store_ref(ref: StoreRef) -> ShardedDataset:
    """Resolve a :class:`StoreRef` to an opened dataset (per-process cache).

    Workers call this once per distinct store and then mmap only the shards
    their cells actually reduce over.  Raises
    :class:`~repro.errors.StoreError` if the on-disk manifest no longer
    matches the digest pinned in the ref.
    """
    key = (ref.path, ref.digest)
    cached = _OPENED.get(key)
    if cached is not None:
        return cached
    dataset = ShardedDataset.open(ref.path)
    actual = manifest_digest(dataset.manifest)
    if actual != ref.digest:
        raise StoreError(
            f"store {ref.path} changed since the ref was issued "
            f"(manifest digest {actual[:12]}... != {ref.digest[:12]}...)"
        )
    _OPENED[key] = dataset
    return dataset


def clear_ref_cache() -> None:
    """Drop the per-process :func:`open_store_ref` cache (worker shutdown)."""
    _OPENED.clear()


def _require_shard_rows(shard_rows: int) -> None:
    if int(shard_rows) < 1:
        raise StoreError(f"shard_rows must be >= 1, got {shard_rows}")


__all__ = [
    "DiskShard",
    "ShardedDataset",
    "StoreRef",
    "open_store_ref",
    "clear_ref_cache",
]
