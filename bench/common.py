"""Shared helpers of the workloads: work directories, timing loops, digests.

Timings are reported in *reference seconds*.  The host the benchmark was
defined on is a shared VM whose CPU speed drifts by up to 2x over minutes,
so a wall time alone does not repeat.  Every timed operation is therefore
paired with runs of a fixed calibration kernel (:func:`slowdown`) taken
just before and after it, and its wall time is divided by the kernel's
slowdown against :data:`CALIB_REF_S`, weighted for the kind of operation.
The kernel is bench code the program never runs, so a change to the
program moves the operation's time and not the kernel's.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from bench import layers

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores and journals, inside the checkout.
WORK_ROOT = ROOT / ".bench_work"

#: Each workload sets up at least this many times, and until the set-ups
#: took this long in all; ``setup_s`` is their median.  Medians of three
#: set-ups moved by up to 25% between runs (the gateway's process start
#: most), so there are five.
SETUP_REPS = 5
SETUP_MIN_S = 1.0
#: Measured operations whose outputs every run digests (trace or not).
DIGEST_OPS = 2


@functools.cache
def _kernel_inputs() -> tuple[list[np.ndarray], np.ndarray]:
    rng = np.random.default_rng(20241016)
    return [rng.random(16) for _ in range(48)], rng.integers(0, 1000, 400_000)


def _interpreter(small: list[np.ndarray], codes: np.ndarray) -> None:
    counts: dict[int, int] = {}
    for i in range(14_000):
        counts[i & 255] = counts.get(i & 255, 0) + i


def _small_calls(small: list[np.ndarray], codes: np.ndarray) -> None:
    acc = 0.0
    for _ in range(10):
        for x in small:
            acc += float((x * 2.0 + 1.0).sum())


def _bincount(small: list[np.ndarray], codes: np.ndarray) -> None:
    np.bincount(codes, minlength=1000)  # 3.2 MB: more than the L2 cache


#: The calibration kernel's parts: interpreter loops over a dict, numpy
#: calls on 16-element arrays, one bincount over a few MB.  The host's
#: slow spells slow the first two much more than the third.
_PARTS = (_interpreter, _small_calls, _bincount)
#: Median time of each part on the reference machine (a 2-vCPU Intel Xeon
#: VM, Python 3.11, numpy 2.4) when the benchmark was defined.
CALIB_REF_S = (2.4e-3, 2.4e-3, 1.0e-3)

#: Weight of each part in the slowdown of a kind of operation.  On the
#: reference machine, with these weights the operations' times divided by
#: the slowdown varied least over 25 minutes of changing host speed.
MIX_NUMPY = (0.4, 0.4, 0.2)  # audits: many numpy calls on mid-sized arrays
MIX_PYTHON = (0.5, 0.5, 0.0)  # stream batches and gateway requests
MIX_MEMORY = (0.2, 0.2, 0.6)  # remedies: mostly row-store copies


def slowdown(mix: Sequence[float], reps: int = 1) -> float:
    """How much slower than the reference the machine runs now, for ``mix``.

    Each part runs ``reps`` times; its median time over its reference is
    its slowdown, and the slowdowns are weighted by ``mix``.
    """
    inputs = _kernel_inputs()
    clock = time.perf_counter
    total = 0.0
    for part, ref_s, weight in zip(_PARTS, CALIB_REF_S, mix):
        if not weight:
            continue
        times = []
        for _ in range(reps):
            start = clock()
            part(*inputs)
            times.append(clock() - start)
        total += weight * statistics.median(times) / ref_s
    return total


def op_count(seconds: float, per_second: float) -> int:
    """Operations in a run of about ``seconds`` reference seconds.

    A run is a fixed amount of work, not a time window: both commits of a
    comparison then time the same operations over the same state, and
    memory that grows with ingested rows is measured at the same size.
    ``per_second`` is the workload's nominal rate per reference second.
    """
    return max(DIGEST_OPS, round(seconds * per_second))


def e2e_result(
    setup_s: list[float], latencies: list[float], rows_per_s: float, rss: float, detail: list
) -> dict:
    """``metrics`` and ``detail`` of an untraced run.

    ``setup_s`` and ``latencies`` are in reference seconds; ``latency_ms``
    is their median and ``rows_per_s`` comes computed.  ``detail`` rows
    are ``[metric, name in the workload's terms, note, samples]``.
    """
    values = (
        ("setup_s", float(np.median(setup_s)), "s"),
        ("latency_ms", float(np.median(latencies)) * 1000.0, "ms"),
        ("rows_per_s", rows_per_s, "rows/s"),
        ("peak_rss_mb", rss, "MiB"),
    )
    return {
        "metrics": {name: {"value": float(v), "unit": unit} for name, v, unit in values},
        "detail": [["setup_s", "setup", "median of the set-ups", len(setup_s)], *detail],
    }


@contextlib.contextmanager
def work_dir(name: str) -> Iterator[Path]:
    """A fresh directory under :data:`WORK_ROOT`, removed on exit."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def child_env() -> dict[str, str]:
    """Environment for a child process: imports ``repro`` and ``bench`` from here."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def sha256_json(payload: object) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def reports_digest(reports) -> str:
    """Bit-exact fingerprint of an IBS report list (floats via ``repr``)."""
    return sha256_json(
        [
            [
                list(r.pattern.items), r.pos, r.neg, repr(r.ratio),
                r.neighbor_pos, r.neighbor_neg, repr(r.neighbor_ratio),
                repr(r.difference),
            ]
            for r in reports
        ]
    )


def dataset_digest(dataset) -> str:
    """Fingerprint of a dataset's rows: every column's bytes and the labels."""
    digest = hashlib.sha256()
    for name in dataset.schema.names:
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(dataset.column(name)).tobytes())
    digest.update(np.ascontiguousarray(dataset.y).tobytes())
    return digest.hexdigest()


def timed_setups(
    setup: Callable[[int], object], discard: Callable[[object], None], mix: Sequence[float]
):
    """Run ``setup(rep)`` repeatedly (see :data:`SETUP_REPS`); keep the last result.

    Returns ``(reference seconds per rep, last result)``; every earlier
    result is passed to ``discard`` before the next set-up starts.  Each
    set-up is bracketed by :func:`slowdown` measurements for ``mix``, like
    an operation of :class:`OpTimer`.
    """
    seconds: list[float] = []
    wall = 0.0
    state = None
    while len(seconds) < SETUP_REPS or wall < SETUP_MIN_S:
        if state is not None:
            discard(state)
        before = slowdown(mix, 3)
        start = time.perf_counter()
        state = setup(len(seconds))
        elapsed = time.perf_counter() - start
        wall += elapsed
        seconds.append(elapsed * 2 / (before + slowdown(mix, 3)))
    return seconds, state


#: Operations share a calibration taken less than this many seconds before.
CALIB_EVERY_S = 0.25


class OpTimer:
    """Times a workload's operations; with ``trace`` every second one is traced.

    Operations are calibrated outside their timed intervals: a
    :func:`slowdown` for ``mix`` of ``calib_reps`` kernel runs is taken before an
    operation when the last one is :data:`CALIB_EVERY_S` old, and after an
    operation that took that long.  An operation is divided by the mean of
    the calibrations just before and just after it.  ``untraced`` /
    ``traced`` are wall seconds and ``*_ref`` the same operations in
    reference seconds.  Alternating traced and untraced operations pairs
    them in time, so the tracing overhead (``trace.overhead``) is measured
    under the same machine conditions on both sides.  The patch and unpatch
    of the layer entry points happen outside the timed interval too.
    """

    def __init__(self, trace: bool, mix: Sequence[float], calib_reps: int = 1):
        self.trace = trace
        self.mix = mix
        self.calib_reps = calib_reps
        self.recorder = layers.Recorder()
        self._calibrations: list[float] = []
        self._calibrated_at = -CALIB_EVERY_S
        #: (traced, wall seconds, index of the calibration before it)
        self._ops: list[tuple[bool, float, int]] = []

    def _calibrate(self) -> None:
        self._calibrations.append(slowdown(self.mix, self.calib_reps))
        self._calibrated_at = time.perf_counter()

    @property
    def n(self) -> int:
        return len(self._ops)

    def run(self, fn: Callable[[], object]) -> object:
        clock = time.perf_counter
        if clock() - self._calibrated_at >= CALIB_EVERY_S:
            self._calibrate()
        traced = self.trace and self.n % 2 == 1
        with layers.installed(self.recorder) if traced else contextlib.nullcontext():
            start = clock()
            out = fn()
            elapsed = clock() - start
        self._ops.append((traced, elapsed, len(self._calibrations) - 1))
        if elapsed >= CALIB_EVERY_S:
            self._calibrate()
        return out

    def _wall(self, traced: bool) -> list[float]:
        return [wall for t, wall, _ in self._ops if t == traced]

    def _ref(self, traced: bool) -> list[float]:
        cal = self._calibrations
        return [
            wall * 2 / (cal[i] + cal[min(i + 1, len(cal) - 1)])
            for t, wall, i in self._ops
            if t == traced
        ]

    untraced = property(lambda self: self._wall(False))
    traced = property(lambda self: self._wall(True))
    untraced_ref = property(lambda self: self._ref(False))
    traced_ref = property(lambda self: self._ref(True))

    def overhead(self) -> float:
        """Median traced over median untraced operation time, minus one."""
        if not self.traced or not self.untraced:
            return 0.0
        return float(np.median(self.traced_ref) / np.median(self.untraced_ref) - 1.0)

    def slowdown(self) -> float:
        """Median slowdown the untraced operations were divided by."""
        return float(np.median(np.divide(self.untraced, self.untraced_ref)))

    def coverage(self, export: dict) -> float:
        """Share of the traced operations' wall time the spans account for."""
        total = sum(self.traced)
        return layers.self_seconds(export) / total if total else 0.0

    def trace_extras(self, export: dict) -> dict[str, float]:
        """Per-layer metrics about the run itself rather than one layer."""
        return {
            "latency_ms_p90": percentile(self.untraced_ref, 90) * 1000.0,
            "machine.slowdown": self.slowdown(),
            "trace.overhead": self.overhead(),
            "trace.coverage": self.coverage(export),
        }


def wall_note(timer: OpTimer) -> str:
    """The untraced operations' plain wall-time median and the slowdown, for humans."""
    return f"wall median {np.median(timer.untraced) * 1000:.2f} ms at slowdown {timer.slowdown():.2f}"


def scaled(export: dict, factor: float) -> dict:
    """An export with every time and count multiplied by ``factor``."""
    return {
        "spans": {
            name: [calls * factor, incl * factor, self_s * factor]
            for name, (calls, incl, self_s) in export["spans"].items()
        },
        "counters": {k: v * factor for k, v in export["counters"].items()},
        "keys": {},
    }


def merged(*exports: dict) -> dict:
    """Sum of several exports (spans and counters; request keys dropped)."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for export in exports:
        for name, values in export["spans"].items():
            agg = spans.setdefault(name, [0.0, 0.0, 0.0])
            for i, v in enumerate(values):
                agg[i] += v
        for k, v in export["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"spans": spans, "counters": counters, "keys": {}}


def check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    """Record one correctness check as ``[name, passed, detail]``."""
    checks.append([name, bool(ok), detail])
