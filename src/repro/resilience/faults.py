"""Deterministic, seed-driven fault injection for resilience tests.

Retry, timeout, checkpoint and degradation paths must be provable without
flaky tests, so faults are injected *deterministically*: a
:class:`FaultPlan` is consulted by the executor before every attempt and
decides — purely from the cell key, the attempt number, and a global call
counter — whether to raise, sleep, or let the attempt through.  The three
fault shapes from the cookbook:

* :class:`TransientFault` — fail the first ``times`` attempts of a cell,
  then succeed (proves the retry path);
* :class:`PermanentFault` — fail every attempt (proves graceful
  degradation into ``FAILED(...)`` markers);
* :class:`SlowFault` — stall before the cell body runs (proves the
  deadline path).

Plan-level ``nth_call`` faults fire on the N-th attempt *overall*,
regardless of cell — raising ``KeyboardInterrupt`` there simulates a crash
at an arbitrary point of a sweep for checkpoint/resume tests.

Two further fault shapes target the *process* backend
(:mod:`repro.resilience.pool`), where a cell runs in a child process that
can genuinely die or wedge:

* :class:`CrashFault` — the worker kills itself mid-cell (``os._exit`` or
  ``SIGKILL``), proving crash classification and respawn;
* :class:`HangFault` — the worker sleeps past the deadline, proving the
  parent's hard-kill (``SIGKILL`` + respawn) path.

Both are *worker actions*: under the in-process backend they are inert
(the driver must never kill itself), and the executor ships them to the
worker as small JSON-safe descriptors via
:meth:`FaultPlan.worker_action`, which :func:`execute_chaos_action` runs.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InternalError, ResilienceError


class InjectedFault(ResilienceError):
    """A deterministic fault raised by the injection layer (retryable)."""


class Fault:
    """Base fault: a hook invoked before each attempt of a matching cell."""

    def on_attempt(self, key: tuple[str, ...], attempt: int) -> None:
        """Raise or stall to inject the fault; return to let the attempt run."""

    def worker_action(self, key: tuple[str, ...], attempt: int) -> dict | None:
        """A JSON-safe chaos descriptor to execute *inside* a pool worker.

        ``None`` (the default) means the fault has nothing to run in the
        worker; the process backend ships a non-None descriptor with the
        task and the worker executes it before the cell body runs.
        """
        return None


class TransientFault(Fault):
    """Fail the first ``times`` attempts of the cell, then succeed."""

    def __init__(
        self,
        times: int = 1,
        error: Callable[[str], BaseException] = InjectedFault,
    ) -> None:
        if times < 1:
            raise ResilienceError(f"times must be >= 1, got {times}")
        self.times = times
        self.error = error

    def on_attempt(self, key: tuple[str, ...], attempt: int) -> None:
        """Raise on attempts ``1..times`` of the matching cell."""
        if attempt <= self.times:
            raise self.error(
                f"injected transient fault on {'/'.join(key)} (attempt {attempt})"
            )


class PermanentFault(Fault):
    """Fail every attempt of the cell."""

    def __init__(
        self, error: Callable[[str], BaseException] = InjectedFault
    ) -> None:
        self.error = error

    def on_attempt(self, key: tuple[str, ...], attempt: int) -> None:
        """Raise unconditionally for the matching cell."""
        raise self.error(
            f"injected permanent fault on {'/'.join(key)} (attempt {attempt})"
        )


class SlowFault(Fault):
    """Stall ``seconds`` before the cell body runs (triggers deadlines)."""

    def __init__(
        self, seconds: float, sleep: Callable[[float], None] = time.sleep
    ) -> None:
        if seconds <= 0:
            raise ResilienceError(f"seconds must be positive, got {seconds}")
        self.seconds = seconds
        self.sleep = sleep

    def on_attempt(self, key: tuple[str, ...], attempt: int) -> None:
        """Sleep inside the deadline scope of the matching cell."""
        self.sleep(self.seconds)


#: ``kind`` values of the chaos descriptors shipped to pool workers.
CHAOS_CRASH = "crash"
CHAOS_HANG = "hang"

#: ``mode`` values of a :data:`CHAOS_CRASH` descriptor.
CRASH_EXIT = "exit"
CRASH_SIGKILL = "sigkill"
CRASH_MODES = (CRASH_EXIT, CRASH_SIGKILL)

#: Exit code used by ``CrashFault(mode="exit")`` so tests can assert on it.
CRASH_EXIT_CODE = 23


def execute_chaos_action(action: Mapping[str, object]) -> None:
    """Run one chaos descriptor against the current process.

    Crash descriptors never return; hang descriptors sleep, so the parent's
    hard-kill (or an external killer) lands deterministically.  Pool
    workers and :func:`repro.data.io.chaos_point` execute descriptors here.
    """
    kind = action.get("kind")
    if kind == CHAOS_CRASH:
        if action.get("mode") == CRASH_SIGKILL:
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(CRASH_EXIT_CODE)
    if kind == CHAOS_HANG:
        time.sleep(float(action["seconds"]))
        return
    raise InternalError(f"unknown chaos descriptor: {action!r}")


class CrashFault(Fault):
    """Kill the worker process mid-cell on the first ``times`` attempts.

    ``mode="exit"`` makes the worker die via ``os._exit`` (a nonzero exit
    code, as a native crash or an OOM-killed allocation would produce);
    ``mode="sigkill"`` makes it SIGKILL itself (death by signal, as the
    kernel OOM killer would).  Both are invisible to Python-level cleanup,
    which is the point: the *parent* must classify the death, respawn the
    worker, and retry or degrade the cell.  Under the in-process backend
    this fault is inert — the driver must never kill itself.
    """

    def __init__(self, times: int = 1, mode: str = CRASH_EXIT) -> None:
        if times < 1:
            raise ResilienceError(f"times must be >= 1, got {times}")
        if mode not in CRASH_MODES:
            raise ResilienceError(
                f"mode must be one of {CRASH_MODES}, got {mode!r}"
            )
        self.times = times
        self.mode = mode

    def worker_action(self, key: tuple[str, ...], attempt: int) -> dict | None:
        """Crash descriptor for attempts ``1..times``, None afterwards."""
        if attempt <= self.times:
            return {"kind": CHAOS_CRASH, "mode": self.mode}
        return None


class HangFault(Fault):
    """Wedge the worker past its deadline on the first ``times`` attempts.

    The worker sleeps ``seconds`` before running the cell body — set it
    comfortably past the executor deadline and the parent's hard-kill
    path fires: the worker is SIGKILLed, the attempt becomes a
    ``TIMEOUT``, and (with ``retry_timeouts=True``) the cell is retried
    on a fresh worker.  Inert under the in-process backend; use
    :class:`SlowFault` to exercise the SIGALRM deadline there.
    """

    def __init__(self, seconds: float, times: int = 1) -> None:
        if seconds <= 0:
            raise ResilienceError(f"seconds must be positive, got {seconds}")
        if times < 1:
            raise ResilienceError(f"times must be >= 1, got {times}")
        self.seconds = seconds
        self.times = times

    def worker_action(self, key: tuple[str, ...], attempt: int) -> dict | None:
        """Hang descriptor for attempts ``1..times``, None afterwards."""
        if attempt <= self.times:
            return {"kind": CHAOS_HANG, "seconds": self.seconds}
        return None


class FaultPlan:
    """Deterministic mapping of sweep cells (or call indices) to faults.

    Parameters
    ----------
    cells:
        ``{cell key: Fault}`` — the fault fires on every attempt of that
        cell until it decides otherwise (see the fault classes).
    nth_call:
        ``{call index: error factory}`` — fires when the plan's global
        attempt counter (1-based, incremented on *every* attempt of every
        cell) reaches the index.  ``KeyboardInterrupt`` here simulates a
        crash mid-sweep.
    """

    def __init__(
        self,
        cells: Mapping[Sequence[str], Fault] | None = None,
        nth_call: Mapping[int, Callable[[], BaseException]] | None = None,
    ) -> None:
        self._cells: dict[tuple[str, ...], Fault] = {
            tuple(str(part) for part in key): fault
            for key, fault in (cells or {}).items()
        }
        self._nth_call = dict(nth_call or {})
        self.calls = 0

    def on_attempt(self, key: tuple[str, ...], attempt: int) -> None:
        """Executor hook: advance the call counter and fire matching faults."""
        self.calls += 1
        factory = self._nth_call.get(self.calls)
        if factory is not None:
            raise factory()
        fault = self._cells.get(tuple(str(part) for part in key))
        if fault is not None:
            fault.on_attempt(tuple(str(part) for part in key), attempt)

    def worker_action(self, key: tuple[str, ...], attempt: int) -> dict | None:
        """The chaos descriptor to ship to the worker for this attempt.

        Consulted by the process backend *after* :meth:`on_attempt` (which
        owns the call counter); parent-side faults raise there, worker
        faults return their descriptor here.
        """
        cell_key = tuple(str(part) for part in key)
        fault = self._cells.get(cell_key)
        if fault is None:
            return None
        return fault.worker_action(cell_key, attempt)

    @property
    def faulty_keys(self) -> tuple[tuple[str, ...], ...]:
        """The cell keys this plan targets, sorted."""
        return tuple(sorted(self._cells))


def interrupt_on_call(n: int) -> FaultPlan:
    """A plan that raises ``KeyboardInterrupt`` on the ``n``-th attempt overall.

    This is the canonical "crash at an arbitrary cell" used by the
    checkpoint/resume tests: the sweep dies exactly there, and a resumed
    run must reproduce the uninterrupted output byte for byte.
    """
    if n < 1:
        raise ResilienceError(f"call index must be >= 1, got {n}")
    return FaultPlan(nth_call={n: KeyboardInterrupt})


def seeded_transients(
    keys: Iterable[Sequence[str]],
    seed: int,
    rate: float = 0.5,
    times: int = 1,
) -> FaultPlan:
    """Deterministically pick a ``rate`` fraction of ``keys`` to fail ``times``.

    The selection is driven by ``np.random.default_rng(seed)`` over the
    keys in their given order, so the same ``(keys, seed, rate)`` always
    produces the same plan — an injected-fault sweep is exactly as
    reproducible as a clean one.
    """
    if not 0 <= rate <= 1:
        raise ResilienceError(f"rate must be in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    faulty = {
        tuple(str(part) for part in key): TransientFault(times=times)
        for key in keys
        if rng.random() < rate
    }
    return FaultPlan(cells=faulty)
