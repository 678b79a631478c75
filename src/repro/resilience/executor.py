"""Fault-tolerant cell execution: retries, backoff, and wall-clock deadlines.

Every experiment harness decomposes its sweep into *cells* — one
(variant, model) evaluation, one robustness seed, one Table III approach —
and routes each through a :class:`CellExecutor`.  The executor runs a cell
in isolation: a typed :class:`~repro.errors.ReproError` is retried under a
deterministic :class:`RetryPolicy`, a cell that exceeds its wall-clock
deadline becomes a ``TIMEOUT`` failure record instead of a hang, and a cell
that still fails after its retry budget degrades into an explicit
``FAILED(<error class>)`` marker instead of aborting the sweep.  Completed
cells are persisted through an optional
:class:`~repro.resilience.checkpoint.Checkpoint` so an interrupted sweep
resumes where it left off.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import CellTimeout, InternalError, ReproError, ResilienceError
from repro.obs import trace as obs
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.faults import FaultPlan

#: Cell identity: a tuple of strings, stable across runs of the same sweep.
Key = tuple[str, ...]

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT)

#: Execution backends: in-process (the oracle) or a spawn-based worker pool.
BACKEND_INPROC = "inproc"
BACKEND_PROCESS = "process"
BACKENDS = (BACKEND_INPROC, BACKEND_PROCESS)


@dataclass(frozen=True)
class RetryPolicy:
    """When and how often a failed cell is re-attempted.

    Only typed :class:`~repro.errors.ReproError` subclasses are retried —
    they mark data-dependent, potentially transient conditions.
    :class:`~repro.errors.InternalError` (a library bug) and non-repro
    exceptions (``ValueError``, numpy errors, ...) are never retried.
    :class:`~repro.errors.CellTimeout` is retried only when
    ``retry_timeouts`` is set, since a deterministic cell that overran its
    deadline once will usually overrun it again.

    The backoff schedule is fully deterministic: the delay after failed
    attempt ``i`` (1-based) is ``base_delay * backoff_factor**(i-1)``,
    scaled by a jitter factor drawn from ``np.random.default_rng`` seeded
    with ``(seed, i)`` — the same policy always sleeps the same amounts.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    retry_timeouts: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ResilienceError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff_factor < 1:
            raise ResilienceError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0 <= self.jitter <= 1:
            raise ResilienceError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        base = self.base_delay * self.backoff_factor ** (attempt - 1)
        if self.jitter == 0 or base == 0:
            return base
        u = float(np.random.default_rng((self.seed, attempt)).uniform(-1.0, 1.0))
        return base * (1.0 + self.jitter * u)

    def schedule(self) -> tuple[float, ...]:
        """The full deterministic backoff schedule (one delay per retry)."""
        return tuple(self.delay(i) for i in range(1, self.max_attempts))

    def is_retryable(self, exc: BaseException) -> bool:
        """True when ``exc`` belongs to a class this policy retries."""
        return classify_failure(exc, self.retry_timeouts)[1]


def classify_failure(exc: BaseException, retry_timeouts: bool) -> tuple[str, bool]:
    """``(status, retryable)`` of an attempt that raised ``exc``.

    The one retryability matrix of both backends (see :class:`RetryPolicy`):
    pool workers classify with it too and ship the pair, not the exception.
    """
    if isinstance(exc, CellTimeout):
        return STATUS_TIMEOUT, retry_timeouts
    retryable = isinstance(exc, ReproError) and not isinstance(exc, InternalError)
    return STATUS_FAILED, retryable


def retry_step(
    policy: RetryPolicy,
    sleep: Callable[[float], None],
    key: Key,
    attempt: int,
    status: str,
    retryable: bool,
    error_type: str,
) -> bool:
    """Account failed attempt ``attempt`` of ``key``; True to run another.

    Every failed attempt on either backend passes through here: a
    ``TIMEOUT`` counts a deadline overrun, and a retryable failure with
    budget left counts a retry and sleeps its deterministic backoff.
    """
    if status == STATUS_TIMEOUT:
        obs.count("cells.deadline_overruns")
        obs.event("cell.timeout", key="/".join(key), attempt=attempt)
    if not retryable or attempt >= policy.max_attempts:
        return False
    delay = policy.delay(attempt)
    obs.count("cells.retries")
    obs.event(
        "cell.retry",
        key="/".join(key),
        attempt=attempt,
        delay=delay,
        error=error_type,
    )
    if delay > 0:
        sleep(delay)
    return True


@dataclass(frozen=True)
class CellOutcome:
    """Result record of one cell: its value, or a typed failure."""

    key: Key
    status: str
    value: object = None
    error_type: str | None = None
    error_message: str | None = None
    attempts: int = 1
    resumed: bool = False

    @property
    def ok(self) -> bool:
        """True when the cell produced a value (fresh or restored)."""
        return self.status == STATUS_OK

    @property
    def marker(self) -> str:
        """Table marker: ``ok``, ``TIMEOUT``, or ``FAILED(<error class>)``."""
        if self.status == STATUS_OK:
            return STATUS_OK
        if self.status == STATUS_TIMEOUT:
            return "TIMEOUT"
        return f"FAILED({self.error_type})"


def _raise_deadline(signum: int, frame: object) -> None:
    raise CellTimeout("cell exceeded its wall-clock deadline")


def call_with_deadline(fn: Callable[[], object], seconds: float | None) -> object:
    """Run ``fn`` under a wall-clock deadline of ``seconds``.

    On the main thread of a Unix process the deadline is enforced
    pre-emptively with ``SIGALRM`` — the cell is interrupted mid-flight and
    :class:`~repro.errors.CellTimeout` is raised, so a hung cell cannot
    stall the sweep.  Off the main thread (or without ``setitimer``) the
    overrun is detected after the call returns and the result is discarded
    with the same :class:`~repro.errors.CellTimeout`, which keeps outcome
    records consistent even where signals are unavailable.

    Deadlines nest: a pre-existing ``SIGALRM`` handler and any pending
    timer are saved before the inner deadline is armed and restored
    afterwards, with the outer timer's remaining budget reduced by the
    time the inner call consumed (an already-expired outer timer fires
    immediately on restore).  SIGALRM cannot interrupt C extensions that
    hold the GIL — for those, use the process backend, whose deadline is
    a ``SIGKILL`` of the worker (see :mod:`repro.resilience.pool`).
    """
    if seconds is None:
        return fn()
    if seconds <= 0:
        raise ResilienceError(f"deadline must be positive, got {seconds}")
    use_signal = (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_signal:
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if elapsed > seconds:
            raise CellTimeout(
                f"cell took {elapsed:.3f}s, exceeding the {seconds:.3f}s deadline"
            )
        return value
    prev_value, prev_interval = signal.getitimer(signal.ITIMER_REAL)
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if prev_value > 0:
            # Re-arm the outer deadline with whatever budget it has left;
            # 1e-6 (not 0, which would disarm) fires an expired one now.
            elapsed = time.perf_counter() - start
            remaining = max(prev_value - elapsed, 1e-6)
            signal.setitimer(signal.ITIMER_REAL, remaining, prev_interval)


@dataclass
class CellExecutor:
    """Runs sweep cells with retries, deadlines, checkpointing, and faults.

    Parameters
    ----------
    policy:
        Retry policy for typed failures (default: 3 attempts, no delay).
    deadline:
        Per-cell wall-clock budget in seconds (None disables it).
    checkpoint:
        Completed cells are recorded here and restored on resume.
    faults:
        Deterministic fault-injection plan consulted before every attempt
        (tests use it to prove the retry/resume/degradation paths).
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    backend:
        ``"inproc"`` (default) runs cells in the driver process and is the
        semantic oracle; ``"process"`` runs registered cell specs (see
        :meth:`run_specs` and :mod:`repro.resilience.pool`) in SIGKILL-able
        spawn workers.  The closure-based :meth:`run_cell` always runs
        in-process regardless of this setting.
    max_workers:
        Worker-process count for the ``"process"`` backend (ignored by
        ``"inproc"``).

    ``outcomes`` accumulates every cell run through this executor, in
    execution order, so harnesses and the CLI can report partial failures
    and choose the dedicated partial-failure exit code.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: float | None = None
    checkpoint: Checkpoint | None = None
    faults: FaultPlan | None = None
    sleep: Callable[[float], None] = time.sleep
    outcomes: list[CellOutcome] = field(default_factory=list)
    backend: str = BACKEND_INPROC
    max_workers: int = 1
    _pool: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ResilienceError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.max_workers < 1:
            raise ResilienceError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )

    def run_cell(
        self,
        key: Sequence[str],
        fn: Callable[[], object],
        encode: Callable[[object], object] | None = None,
        decode: Callable[[object], object] | None = None,
    ) -> CellOutcome:
        """Run one cell, consulting and feeding the checkpoint.

        ``encode``/``decode`` convert the cell value to and from a
        JSON-serialisable payload; identity when omitted.  A cell already
        present in the checkpoint is not re-run — its recorded value is
        restored verbatim, which is what makes a resumed sweep's output
        byte-identical to an uninterrupted one.
        """
        cell_key: Key = tuple(str(part) for part in key)
        with obs.span("cell", key="/".join(cell_key)) as cell_span:
            restored = self._restore(cell_key, decode)
            if restored is not None:
                self.outcomes.append(restored)
                cell_span.annotate(status=STATUS_OK, resumed=True)
                return restored
            outcome = self._execute(cell_key, fn)
            self._commit(outcome, encode)
            self.outcomes.append(outcome)
            cell_span.annotate(status=outcome.status, attempts=outcome.attempts)
            return outcome

    def _restore(
        self, cell_key: Key, decode: Callable[[object], object] | None
    ) -> CellOutcome | None:
        """The checkpointed outcome for ``cell_key``, or None to (re-)run it."""
        if self.checkpoint is None:
            return None
        payload = self.checkpoint.get(cell_key)
        if payload is None:
            return None
        value = payload["value"]
        if decode is not None:
            value = decode(value)
        outcome = CellOutcome(
            key=cell_key,
            status=STATUS_OK,
            value=value,
            attempts=int(payload.get("attempts", 1)),
            resumed=True,
        )
        obs.count("cells.resumed")
        obs.event("cell.resumed", key="/".join(cell_key))
        return outcome

    def _commit(
        self, outcome: CellOutcome, encode: Callable[[object], object] | None
    ) -> None:
        """Persist a fresh outcome to the checkpoint and count its status."""
        if self.checkpoint is not None:
            if outcome.ok:
                value = outcome.value
                if encode is not None:
                    value = encode(value)
                self.checkpoint.record(
                    outcome.key, {"value": value, "attempts": outcome.attempts}
                )
            else:
                self.checkpoint.record_failure(
                    outcome.key,
                    status=outcome.status,
                    error_type=outcome.error_type,
                    error_message=outcome.error_message,
                    attempts=outcome.attempts,
                )
            obs.count("cells.checkpoint_flushes")
            obs.event("cell.checkpoint_flush", key="/".join(outcome.key))
        obs.count(f"cells.{outcome.status}")

    def _execute(self, key: Key, fn: Callable[[], object]) -> CellOutcome:
        """Attempt loop for one cell; never raises except KeyboardInterrupt."""

        def invoke() -> object:
            if self.faults is not None:
                self.faults.on_attempt(key, attempt)
            return fn()

        attempt = 1
        while True:
            try:
                value = call_with_deadline(invoke, self.deadline)
            except Exception as exc:  # repro: ignore[R007] — recorded, by design
                # Every failure — untyped ones (numpy LinAlgError, a
                # ZeroDivisionError in a degenerate cell, ...) included —
                # degrades into a failure record: one broken cell must not
                # abort the sweep.  KeyboardInterrupt still propagates.
                status, retryable = classify_failure(exc, self.policy.retry_timeouts)
                error_type = type(exc).__name__
                if retry_step(
                    self.policy, self.sleep, key, attempt, status, retryable, error_type
                ):
                    attempt += 1
                    continue
                return CellOutcome(
                    key=key,
                    status=status,
                    error_type=error_type,
                    error_message=str(exc),
                    attempts=attempt,
                )
            return CellOutcome(key=key, status=STATUS_OK, value=value, attempts=attempt)

    def run_specs(
        self,
        specs: Iterable["CellSpec"],
        encode: Callable[[object], object] | None = None,
        decode: Callable[[object], object] | None = None,
    ) -> list[CellOutcome]:
        """Run registry-addressed cell specs on the configured backend.

        A :class:`~repro.resilience.pool.CellSpec` names a registered,
        importable cell function plus its picklable parameters, so the same
        sweep can run in-process (``backend="inproc"``, the oracle) or on
        the spawn-based worker pool (``backend="process"``).  Outcomes are
        returned — and appended to ``self.outcomes`` — in spec order on
        both backends, and checkpoint writes always happen here in the
        driver process (single writer), so the two backends produce
        byte-identical artifacts.
        """
        from repro.resilience.pool import resolve_cell

        spec_list = list(specs)
        if self.backend == BACKEND_INPROC:
            outcomes = []
            for spec in spec_list:
                fn = resolve_cell(spec.fn_id)
                outcomes.append(
                    self.run_cell(
                        spec.key,
                        lambda fn=fn, spec=spec: fn(**spec.params),
                        encode=encode,
                        decode=decode,
                    )
                )
            return outcomes
        return self._run_specs_process(spec_list, encode, decode)

    def _run_specs_process(
        self,
        specs: Sequence["CellSpec"],
        encode: Callable[[object], object] | None,
        decode: Callable[[object], object] | None,
    ) -> list[CellOutcome]:
        """Partition resumed cells, run the rest on the worker pool."""
        from repro.resilience.pool import WorkerPool, resolve_cell

        for spec in specs:
            resolve_cell(spec.fn_id)  # fail fast on unregistered cells
        results: dict[int, CellOutcome] = {}
        fresh: list[tuple[int, "CellSpec"]] = []
        for index, spec in enumerate(specs):
            if self.checkpoint is not None and self.checkpoint.get(spec.key) is not None:
                with obs.span("cell", key="/".join(spec.key)) as cell_span:
                    restored = self._restore(spec.key, decode)
                    cell_span.annotate(status=STATUS_OK, resumed=True)
                results[index] = restored
            else:
                fresh.append((index, spec))

        def on_complete(index: int, outcome: CellOutcome) -> None:
            results[index] = outcome
            self._commit(outcome, encode)

        if self._pool is None:
            # The pool persists across run_specs calls: workers stay warm
            # and shared-memory datasets stay published for the executor's
            # whole life, until close() tears both down.
            self._pool = WorkerPool(
                max_workers=self.max_workers,
                policy=self.policy,
                deadline=self.deadline,
                faults=self.faults,
                sleep=self.sleep,
            )
        try:
            self._pool.run(fresh, on_complete=on_complete)
        finally:
            # Even on interrupt, completed cells join ``outcomes`` in spec
            # order; their checkpoints were flushed at completion time.
            self.outcomes.extend(results[i] for i in sorted(results))
        return [results[i] for i in range(len(specs))]

    def close(self) -> None:
        """Release the warm worker pool and its shared-memory datasets.

        Safe to call on any executor (a no-op for ``inproc`` or before the
        first process-backend sweep) and idempotent.  The pool drains and
        joins its workers before unlinking segments, so closing mid-life
        never yanks a buffer out from under a running cell.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def failures(self) -> tuple[CellOutcome, ...]:
        """Outcomes of every cell that did not complete."""
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def n_failed(self) -> int:
        """Number of failed (or timed-out) cells so far."""
        return len(self.failures)

    @property
    def n_resumed(self) -> int:
        """Number of cells restored from the checkpoint instead of re-run."""
        return sum(1 for o in self.outcomes if o.resumed)
