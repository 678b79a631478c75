"""Bench-side layer tracing: wrap each layer's public entry points, time them.

The program's own tracer (``repro.obs``) keeps its span stack in one
``contextvars`` variable with a single shared list, so spans opened on the
gateway's handler threads would be dropped or misparented.  This module
records spans with its own :class:`Recorder` instead: every thread gets its
own span stack and aggregates, registered once under a lock and merged only
when the recorder is read.  Nothing under ``src/`` changes; :func:`installed`
patches the entry points for the length of a ``with`` block and restores
every original on exit.

A span's *self time* is its duration minus the durations of the spans it
directly encloses, so the self times of all spans never sum to more than
the wall time they ran in.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Callable, Iterator

import numpy as np

#: Per-layer metrics: name, unit, which direction is better.  A ``_ms``
#: metric is mean self time per operation of its workload; see README.md
#: for the operation of each workload and the end-to-end metric each layer
#: metric should move.  A layer that does not run on a workload reads 0.
PER_LAYER = (
    ("latency_ms_p90", "ms", "lower"),
    ("hierarchy.build_ms", "ms", "lower"),
    ("hierarchy.count_delta_ms", "ms", "lower"),
    ("hierarchy.count_delta_calls", "count", "lower"),
    ("hierarchy.leaf_counts_ms", "ms", "lower"),
    ("ibs.identify_ms", "ms", "lower"),
    ("ibs.score_ms", "ms", "lower"),
    ("ibs.nodes_scanned", "count", "lower"),
    ("ibs.regions_scanned", "count", "lower"),
    ("ibs.biased_per_scanned", "ratio", "higher"),
    ("ibs.region_report_ms", "ms", "lower"),
    ("ibs.region_report_calls", "count", "lower"),
    ("remedy.loop_ms", "ms", "lower"),
    ("remedy.useful_ratio", "ratio", "higher"),
    ("samplers.apply_ms", "ms", "lower"),
    ("ranker.fit_ms", "ms", "lower"),
    ("dataset.rowcopy_ms", "ms", "lower"),
    ("store.write_s", "s", "lower"),
    ("store.region_counts_ms", "ms", "lower"),
    ("store.bytes_scanned", "bytes", "lower"),
    ("stream.service_ms", "ms", "lower"),
    ("stream.validate_ms", "ms", "lower"),
    ("stream.state_ms", "ms", "lower"),
    ("stream.rescore_ms", "ms", "lower"),
    ("stream.monitor_ms", "ms", "lower"),
    ("stream.regions_rescored_per_delta", "ratio", "lower"),
    ("stream.rescore_useful_ratio", "ratio", "higher"),
    ("journal.append_ms", "ms", "lower"),
    ("journal.fsync_ms", "ms", "lower"),
    ("journal.bytes_per_delta", "bytes", "lower"),
    ("gateway.decode_ms", "ms", "lower"),
    ("gateway.service_ms", "ms", "lower"),
    ("gateway.http_ms", "ms", "lower"),
    ("gateway.refused", "count", "lower"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("machine.slowdown", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

_UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Span name under which the recorder's own counting time is kept.
HOOKS = "trace.hooks"


class _ThreadLog:
    """One thread's open-span stack and running aggregates."""

    __slots__ = ("stack", "spans", "counters", "key")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.key: str | None = None


class Recorder:
    """Span recorder with per-thread stacks, merged when read."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(
        self,
        fn: Callable,
        name: str,
        counts: Callable[[tuple, object], dict[str, float]] | None = None,
        key: Callable[[tuple], str] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``counts(args, result)`` returns counters to add after each call;
        ``key(args)`` tags the calling thread with a request key (the
        gateway's batch id), so one request's spans can be joined.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            if key is not None:
                log.key = key(args)
            frame = [0.0]  # seconds spent in directly enclosed spans
            log.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                log.stack.pop()
                if log.stack:
                    log.stack[-1][0] += elapsed
                agg = log.spans.get(name)
                if agg is None:
                    agg = log.spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += max(elapsed - frame[0], 0.0)
            if counts is not None:
                # Bookkeeping is timed as a child of the enclosing span, so
                # it inflates no layer's self time; trace.overhead shows it.
                start = clock()
                for counter, n in counts(args, result).items():
                    log.counters[counter] = log.counters.get(counter, 0) + n
                elapsed = clock() - start
                if log.stack:
                    log.stack[-1][0] += elapsed
                agg = log.spans.get(HOOKS)
                if agg is None:
                    agg = log.spans[HOOKS] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed
            return result

        return wrapper

    def export(self) -> dict:
        """Merged aggregates: ``{"spans", "counters", "keys"}`` (JSON-safe).

        ``keys`` maps each request key to the inclusive seconds per span
        name of the thread that carried it.
        """
        spans: dict[str, list[float]] = {}
        counters: dict[str, float] = {}
        keys: dict[str, dict[str, float]] = {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for name, (calls, incl, self_s) in log.spans.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += incl
                agg[2] += self_s
            for counter, n in log.counters.items():
                counters[counter] = counters.get(counter, 0) + n
            if log.key is not None:
                per = keys.setdefault(log.key, {})
                for name, (_, incl, _) in log.spans.items():
                    per[name] = per.get(name, 0.0) + incl
        return {"spans": spans, "counters": counters, "keys": keys}


class _RescoreTracker:
    """Counts re-scored regions whose counts the current stream batch changed.

    The stream auditor folds a batch's leaf-granular count change into the
    hierarchy with one whole-space ``apply_count_delta`` and then re-scores
    the dirty regions; a region's counts changed iff that delta sums to a
    non-zero value over the region's slice.  The auditor applies one batch
    at a time (the gateway serialises ingest), so one tracker is enough.
    """

    def __init__(self) -> None:
        self._delta: tuple | None = None
        #: node attrs -> coords whose counts the current batch changed
        self._changed: dict[tuple, set] = {}

    def count_delta(self, args: tuple, result: object) -> dict[str, float]:
        hierarchy, pattern, dpos, dneg = args[:4]
        if not pattern.attrs:
            self._delta = (hierarchy.attrs, np.asarray(dpos), np.asarray(dneg))
            self._changed = {}
        return {}

    def batch_done(self, args: tuple, result: object) -> dict[str, float]:
        self._delta = None
        return {"stream.deltas": len(args[3])}

    def rescored(self, args: tuple, result: object) -> dict[str, float]:
        node, pattern = args[1], args[2]
        if self._delta is None:
            return {"stream.rescore_changed": 0}
        changed = self._changed.get(node.attrs)
        if changed is None:
            attrs, dpos, dneg = self._delta
            drop = tuple(i for i, a in enumerate(attrs) if a not in node.attrs)
            moved = (dpos.sum(axis=drop) != 0) | (dneg.sum(axis=drop) != 0)
            changed = self._changed[node.attrs] = set(map(tuple, np.argwhere(moved).tolist()))
        coords = tuple(pattern.value_of(a) for a in node.attrs)
        return {"stream.rescore_changed": int(coords in changed)}


def _scanned(args: tuple, result: object) -> dict[str, float]:
    return {
        "ibs.nodes_scanned": 1,
        "ibs.regions_scanned": args[1].n_cells,
        "ibs.biased": len(result),
    }


def _store_bytes(args: tuple, result: object) -> dict[str, float]:
    """Bytes of the label file and the counted columns' files, per manifest."""
    from repro.data.store.format import LABELS_FILE, column_file_name

    table, attrs = args[0], args[1]
    if table.manifest is None:
        return {}
    names = table.schema.names
    wanted = {LABELS_FILE} | {column_file_name(names.index(a)) for a in attrs}
    nbytes = sum(
        meta["nbytes"]
        for shard in table.manifest["shards"]
        for fname, meta in shard["files"].items()
        if fname in wanted
    )
    return {"store.bytes_scanned": nbytes}


def _targets() -> list[tuple[object, str, str, Callable | None, Callable | None]]:
    """``(owner, attribute, span name, counts, key)`` for every entry point."""
    import os

    from repro.core import ibs, remedy
    from repro.core.hierarchy import Hierarchy
    from repro.core.ranker import BorderlineRanker
    from repro.data.dataset import Dataset
    from repro.data.store.sharded import ShardedDataset
    from repro.serve import gateway
    from repro.stream import engine
    from repro.stream.journal import DeltaLog
    from repro.stream.monitor import DriftMonitor
    from repro.stream.service import StreamService
    from repro.stream.state import StreamState

    def applied(args, result):
        return {"samplers.calls": 1, "samplers.applied": int(result is not None)}

    rescore = _RescoreTracker()
    return [
        (Hierarchy, "__init__", "hierarchy.build", None, None),
        (Hierarchy, "apply_count_delta", "hierarchy.count_delta", rescore.count_delta, None),
        (Hierarchy, "region_leaf_counts", "hierarchy.leaf_counts", None, None),
        (ibs, "identify_ibs", "ibs.identify", None, None),
        (remedy, "identify_ibs", "ibs.identify", None, None),
        (ibs, "node_biased_reports", "ibs.score", _scanned, None),
        (remedy, "node_biased_reports", "ibs.score", _scanned, None),
        (engine, "region_report", "ibs.region_report", rescore.rescored, None),
        (remedy, "remedy_dataset", "remedy.run", None, None),
        (remedy, "apply_technique", "samplers.apply", applied, None),
        (BorderlineRanker, "fit", "ranker.fit", None, None),
        (Dataset, "take", "dataset.rowcopy", None, None),
        (Dataset, "drop", "dataset.rowcopy", None, None),
        (Dataset, "append_rows", "dataset.rowcopy", None, None),
        (ShardedDataset, "region_counts", "store.region_counts", _store_bytes, None),
        (engine.StreamAuditor, "validate_batch", "stream.validate", None, None),
        (engine.StreamAuditor, "apply_batch", "stream.apply", rescore.batch_done, None),
        (StreamState, "insert", "stream.state", None, None),
        (StreamState, "delete", "stream.state", None, None),
        (StreamState, "relabel", "stream.state", None, None),
        (
            DriftMonitor, "observe", "stream.monitor",
            lambda args, result: {"stream.regions_rescored": len(args[2])}, None,
        ),
        (DeltaLog, "append_batch", "journal.append", None, None),
        (os, "fsync", "journal.fsync", None, None),
        (gateway, "deltas_from_records", "gateway.decode", None, None),
        (StreamService, "submit", "service.submit", None, lambda args: str(args[1])),
        (StreamService, "drain", "service.drain", None, None),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Patch every layer entry point to record into ``recorder``.

    On exit every attribute is restored to exactly what it was: an
    attribute the owner defined itself gets its original back, one it
    inherited is deleted again.
    """
    undo: list[tuple[object, str, object, bool]] = []
    try:
        for owner, attr, name, counts, key in _targets():
            own = attr in vars(owner)
            original = getattr(owner, attr)
            undo.append((owner, attr, vars(owner).get(attr), own))
            setattr(owner, attr, recorder.wrap(original, name, counts, key))
        yield recorder
    finally:
        for owner, attr, original, own in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _self_ms(spans: dict, *names: str) -> float:
    return sum(spans[n][2] for n in names if n in spans) * 1000.0


def _calls(spans: dict, name: str) -> float:
    return spans[name][0] if name in spans else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_seconds(export: dict) -> float:
    """Total self time of every recorded span (never exceeds their wall)."""
    return sum(agg[2] for agg in export["spans"].values())


def layer_metrics(export: dict, n_ops: int, extra: dict[str, float]) -> dict:
    """Every :data:`PER_LAYER` metric from one traced loop's export.

    ``n_ops`` is the number of workload operations the traced loop ran;
    ``extra`` supplies the metrics measured outside the spans (set-up,
    journal growth, client-side timings, overhead); missing ones read 0.
    """
    spans, counters = export["spans"], export["counters"]
    ops = max(n_ops, 1)
    per_op = {
        "hierarchy.build_ms": _self_ms(spans, "hierarchy.build"),
        "hierarchy.count_delta_ms": _self_ms(spans, "hierarchy.count_delta"),
        "hierarchy.count_delta_calls": _calls(spans, "hierarchy.count_delta"),
        "hierarchy.leaf_counts_ms": _self_ms(spans, "hierarchy.leaf_counts"),
        "ibs.identify_ms": _self_ms(spans, "ibs.identify"),
        "ibs.score_ms": _self_ms(spans, "ibs.score"),
        "ibs.nodes_scanned": counters.get("ibs.nodes_scanned", 0),
        "ibs.regions_scanned": counters.get("ibs.regions_scanned", 0),
        "ibs.region_report_ms": _self_ms(spans, "ibs.region_report"),
        "ibs.region_report_calls": _calls(spans, "ibs.region_report"),
        "remedy.loop_ms": _self_ms(spans, "remedy.run"),
        "samplers.apply_ms": _self_ms(spans, "samplers.apply"),
        "ranker.fit_ms": _self_ms(spans, "ranker.fit"),
        "dataset.rowcopy_ms": _self_ms(spans, "dataset.rowcopy"),
        "store.region_counts_ms": _self_ms(spans, "store.region_counts"),
        "store.bytes_scanned": counters.get("store.bytes_scanned", 0),
        "stream.service_ms": _self_ms(spans, "service.submit", "service.drain"),
        "stream.validate_ms": _self_ms(spans, "stream.validate"),
        "stream.state_ms": _self_ms(spans, "stream.state"),
        "stream.rescore_ms": _self_ms(spans, "stream.apply", "ibs.region_report"),
        "stream.monitor_ms": _self_ms(spans, "stream.monitor"),
        "journal.append_ms": _self_ms(spans, "journal.append"),
        "journal.fsync_ms": _self_ms(spans, "journal.fsync"),
        "gateway.decode_ms": _self_ms(spans, "gateway.decode"),
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["ibs.biased_per_scanned"] = _ratio(
        counters.get("ibs.biased", 0), counters.get("ibs.regions_scanned", 0)
    )
    out["remedy.useful_ratio"] = _ratio(
        counters.get("samplers.applied", 0), counters.get("samplers.calls", 0)
    )
    out["stream.regions_rescored_per_delta"] = _ratio(
        counters.get("stream.regions_rescored", 0), counters.get("stream.deltas", 0)
    )
    out["stream.rescore_useful_ratio"] = _ratio(
        counters.get("stream.rescore_changed", 0),
        _calls(spans, "ibs.region_report"),
    )
    for name, _, _ in PER_LAYER:
        out.setdefault(name, float(extra.get(name, 0.0)))
    return {name: {"value": out[name], "unit": _UNITS[name]} for name, _, _ in PER_LAYER}
