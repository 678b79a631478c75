"""Zero-copy shared-memory dataset plane for the worker pool.

Shipping a :class:`~repro.data.dataset.Dataset` to a worker through a pipe
pickles every array once per cell — for a sweep of dozens of cells over one
dataset that is almost all of the shipping cost ``BENCH_pool.json`` records.
This module removes it: the driver *publishes* a dataset's arrays once into
a :class:`multiprocessing.shared_memory.SharedMemory` segment and cells
carry a tiny :class:`DatasetRef` (segment name + per-array dtype/shape/
offset layout) instead; workers *attach* the segment and rebuild the
dataset as read-only numpy views over the shared buffer — the bytes cross
the process boundary zero times.

Lifecycle invariants (pinned by ``tests/test_shm.py`` and the ``chaos``
drills, see "Chaos drills" in ``docs/resilience.md``):

* **Content-addressed, refcounted.**  Segments are keyed by a sha256 of the
  schema, array bytes, labels, and protected set; publishing the same
  dataset twice returns the same segment with its refcount bumped, and the
  segment is unlinked exactly when the refcount returns to zero.
* **Single owner.**  Only the driver creates and unlinks segments.  Workers
  attach read-only; the attach re-registers the name with the *shared*
  resource tracker (multiprocessing children inherit the driver's tracker
  process), which dedups it — so a dying worker never unlinks a segment
  out from under the driver or its sibling workers.
* **Crash sweep.**  The driver's creation is registered with the resource
  tracker, so a ``SIGKILL``\\ ed driver still gets its segments unlinked
  by the tracker process; an :mod:`atexit` hook (also reached via the
  pool's SIGTERM drain path) sweeps anything still published on normal
  and signalled exits.
* **Teardown ordering.**  :meth:`~repro.resilience.pool.WorkerPool.close`
  drains and joins every worker *before* releasing segments, so a cell
  mid-read can never observe a vanished segment.

This module is the single sanctioned owner of raw
``multiprocessing.shared_memory`` use — analysis rule R008 flags it
anywhere outside :mod:`repro.resilience`.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.errors import ResilienceError
from repro.obs import trace as obs

#: Segment names start with this; the ``chaos`` drills grep ``/dev/shm``
#: for it to prove nothing leaked.
SEGMENT_PREFIX = "repro-shm"

#: Array start offsets are rounded up to this many bytes so every view is
#: aligned regardless of the dtypes packed before it.
_ALIGN = 64

#: Reserved layout entry name for the label vector.
_Y_KEY = "__y__"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Layout of one array inside a segment: name, dtype, shape, offset."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    @property
    def nbytes(self) -> int:
        count = 1
        for s in self.shape:
            count *= s
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class DatasetRef:
    """A by-name handle to a published dataset: ships in place of the data.

    ``segment`` is the shared-memory segment name, ``arrays`` the packed
    layout (one :class:`ArraySpec` per column plus the reserved ``__y__``
    entry for the labels).  The ref pickles in a few hundred bytes no
    matter how large the dataset is.
    """

    segment: str
    content_hash: str
    schema: Schema
    protected: tuple[str, ...]
    arrays: tuple[ArraySpec, ...]
    nbytes: int

    @property
    def n_rows(self) -> int:
        for spec in self.arrays:
            if spec.name == _Y_KEY:
                return spec.shape[0]
        raise ResilienceError(f"ref for {self.segment} has no label layout")


class _Published:
    """Driver-side record of one live segment."""

    __slots__ = ("shm", "ref", "refcount")

    def __init__(self, shm: shared_memory.SharedMemory, ref: DatasetRef) -> None:
        self.shm = shm
        self.ref = ref
        self.refcount = 1


#: Driver-side registry: segment name -> live segment + refcount.
_PUBLISHED: dict[str, _Published] = {}

#: Worker-side cache: segment name -> (attached segment, rebuilt dataset).
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, Dataset]] = {}


def dataset_content_hash(dataset: Dataset) -> str:
    """Deterministic sha256 of a dataset's schema, arrays, and labels."""
    digest = hashlib.sha256()
    header = {
        "columns": [
            {
                "name": col.name,
                "categorical": col.is_categorical,
                "domain": list(col.domain) if col.is_categorical else None,
            }
            for col in dataset.schema
        ],
        "protected": list(dataset.protected),
    }
    digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    for col in dataset.schema:
        arr = np.ascontiguousarray(dataset.column(col.name))
        digest.update(col.name.encode("utf-8"))
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(arr.data)
    y = np.ascontiguousarray(dataset.y)
    digest.update(str(y.dtype).encode("utf-8"))
    digest.update(y.data)
    return digest.hexdigest()


def _layout(dataset: Dataset) -> tuple[tuple[ArraySpec, ...], int]:
    """Packed array layout and total segment size for ``dataset``."""
    specs: list[ArraySpec] = []
    offset = 0
    for col in dataset.schema:
        arr = dataset.column(col.name)
        offset = _aligned(offset)
        specs.append(ArraySpec(col.name, str(arr.dtype), arr.shape, offset))
        offset += arr.nbytes
    offset = _aligned(offset)
    specs.append(ArraySpec(_Y_KEY, str(dataset.y.dtype), dataset.y.shape, offset))
    offset += dataset.y.nbytes
    return tuple(specs), max(offset, 1)


def publish_dataset(dataset: Dataset) -> DatasetRef:
    """Publish ``dataset`` into shared memory; returns its shipping ref.

    Content-addressed and refcounted: publishing an identical dataset again
    reuses the live segment and bumps its refcount.  Every successful call
    must be balanced by one :func:`release` for the segment to be unlinked.
    """
    content = dataset_content_hash(dataset)
    name = f"{SEGMENT_PREFIX}-{os.getpid()}-{content[:16]}"
    entry = _PUBLISHED.get(name)
    if entry is not None:
        entry.refcount += 1
        return entry.ref
    specs, total = _layout(dataset)
    try:
        segment = shared_memory.SharedMemory(name=name, create=True, size=total)
    except FileExistsError:
        # A previous driver with our pid died hard enough to leak its
        # segment past every sweep; reclaim the name.
        stale = shared_memory.SharedMemory(name=name)
        stale.close()
        stale.unlink()
        segment = shared_memory.SharedMemory(name=name, create=True, size=total)
    payload = 0
    for spec in specs:
        source = (
            dataset.y if spec.name == _Y_KEY else dataset.column(spec.name)
        )
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset
        )
        view[...] = source
        payload += spec.nbytes
    ref = DatasetRef(
        segment=name,
        content_hash=content,
        schema=dataset.schema,
        protected=tuple(dataset.protected),
        arrays=specs,
        nbytes=payload,
    )
    _PUBLISHED[name] = _Published(segment, ref)
    obs.count("shm.segments_published")
    obs.count("shm.bytes_published", payload)
    return ref


def release(segment: str) -> None:
    """Drop one reference to ``segment``; unlink it at refcount zero."""
    entry = _PUBLISHED.get(segment)
    if entry is None:
        raise ResilienceError(f"segment {segment!r} is not published")
    entry.refcount -= 1
    if entry.refcount > 0:
        return
    del _PUBLISHED[segment]
    _close_and_unlink(entry.shm)
    obs.count("shm.segments_unlinked")


def _close_and_unlink(segment: shared_memory.SharedMemory) -> None:
    """Close the mapping (tolerating live views) and unlink the segment."""
    try:
        segment.close()
    except BufferError:
        # A numpy view over the buffer is still alive somewhere; the
        # mapping dies with the process, but the *name* must go now.
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def published_segments() -> dict[str, int]:
    """Live driver-side segments and their refcounts (for tests/inspection)."""
    return {name: entry.refcount for name, entry in _PUBLISHED.items()}


def unlink_all() -> int:
    """Force-unlink every published segment; returns how many were swept.

    The atexit crash sweep: anything still published when the driver exits
    (normally, or through the pool's SIGTERM drain path) is reclaimed here;
    a SIGKILLed driver falls back to its resource tracker, which unlinks
    the registered segments when the process vanishes.
    """
    swept = 0
    for name in list(_PUBLISHED):
        entry = _PUBLISHED.pop(name)
        _close_and_unlink(entry.shm)
        swept += 1
    return swept


def _atexit_sweep() -> None:
    unlink_all()


atexit.register(_atexit_sweep)


def attach_dataset(ref: DatasetRef) -> Dataset:
    """Rebuild the published dataset as read-only views (worker side).

    Attaches the segment once per process and caches the rebuilt dataset,
    so a warm worker pays the attach + validation cost a single time per
    dataset for the whole sweep.  The returned dataset's arrays are
    write-protected views over the shared buffer — a cell that tries to
    mutate them in place raises instead of corrupting its siblings.
    """
    cached = _ATTACHED.get(ref.segment)
    if cached is not None:
        return cached[1]
    try:
        segment = shared_memory.SharedMemory(name=ref.segment)
    except FileNotFoundError:
        raise ResilienceError(
            f"shared dataset segment {ref.segment!r} has vanished; the "
            "driver must keep segments published until every worker has "
            "drained (WorkerPool.close orders join before unlink)"
        ) from None
    # CPython registers *every* SharedMemory open with the resource
    # tracker, attaches included.  That is safe here — multiprocessing
    # children share the driver's tracker process (spawn passes its fd),
    # and the tracker's cache is a set — so the attach just re-adds the
    # name the driver registered at create time; a SIGKILLed worker
    # triggers no tracker cleanup, and a SIGKILLed *driver* still gets
    # its segments unlinked when the shared tracker sees it die.
    columns: dict[str, np.ndarray] = {}
    y: np.ndarray | None = None
    for spec in ref.arrays:
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset
        )
        view.setflags(write=False)
        if spec.name == _Y_KEY:
            y = view
        else:
            columns[spec.name] = view
    if y is None:
        raise ResilienceError(f"ref for {ref.segment} has no label layout")
    dataset = Dataset(ref.schema, columns, y, ref.protected)
    _ATTACHED[ref.segment] = (segment, dataset)
    obs.count("shm.segments_attached")
    obs.count("shm.bytes_saved", ref.nbytes)
    return dataset


def detach_all() -> None:
    """Close every attached segment (worker shutdown; never unlinks).

    Also drops the worker's sharded-store handle cache so no memory-mapped
    shard outlives the cells that touched it.
    """
    from repro.data.store import clear_ref_cache

    for segment, _ in _ATTACHED.values():
        try:
            segment.close()
        except BufferError:
            pass  # live views keep the mapping; it dies with the process
    _ATTACHED.clear()
    clear_ref_cache()


def swap_refs(params: Mapping[str, object]) -> dict[str, object]:
    """Params with every shipped dataset handle resolved to a dataset.

    :class:`DatasetRef` values attach to their shared-memory segment;
    :class:`~repro.data.store.StoreRef` values open the on-disk sharded
    store (per-process cache), so a worker memory-maps only the shards its
    cells actually reduce over.
    """
    from repro.data.store import StoreRef, open_store_ref

    out: dict[str, object] = {}
    for key, value in params.items():
        if isinstance(value, DatasetRef):
            out[key] = attach_dataset(value)
        elif isinstance(value, StoreRef):
            out[key] = open_store_ref(value)
        else:
            out[key] = value
    return out


__all__ = [
    "ArraySpec",
    "DatasetRef",
    "SEGMENT_PREFIX",
    "attach_dataset",
    "dataset_content_hash",
    "detach_all",
    "publish_dataset",
    "published_segments",
    "release",
    "swap_refs",
    "unlink_all",
]
