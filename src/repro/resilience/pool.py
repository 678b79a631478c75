"""Process-isolated parallel cell execution: a crash-surviving worker pool.

The in-process executor (:mod:`repro.resilience.executor`) retries and
checkpoints cells, but every cell still runs *inside the driver*: a native
crash or OOM kill takes the whole sweep down, and a cell wedged inside a C
extension that never releases the GIL cannot be interrupted by ``SIGALRM``
at all.  :class:`WorkerPool` removes both failure modes by running cells in
child processes (stdlib :mod:`multiprocessing`, **spawn** context):

* **Registry, not closures.**  Cells are module-level functions registered
  under a stable id with :func:`register_cell`; the pool ships
  ``(cell id, params)`` over a pipe and the worker imports the function's
  module by name.  Params are ordinary picklable *data* — closures (and
  anything process-local) never cross the process boundary.
* **Hard-kill deadlines.**  The parent tracks a wall-clock deadline per
  in-flight cell and ``SIGKILL``\\ s the worker on overrun, then respawns
  it — this works for C code and non-main threads, unlike ``SIGALRM``.
  The attempt is recorded as a ``TIMEOUT`` exactly like the in-process
  deadline path.
* **Crash classification.**  A worker that dies mid-cell (nonzero exit,
  death by signal, or a lost pipe) degrades the attempt into a
  :class:`~repro.errors.WorkerCrash` — a retryable
  :class:`~repro.errors.ResilienceError`, so the cell is re-dispatched to
  a fresh worker and only becomes ``FAILED(WorkerCrash)`` once the retry
  budget is spent.  The sweep itself never dies with a worker.
* **Bounded in-flight backpressure.**  At most ``max_workers`` cells are
  in flight; every result funnels back to the parent before more work is
  dispatched, and the parent is the *single writer* of checkpoints (via
  the executor's per-completion flush callback).
* **Graceful drain.**  ``SIGINT``/``SIGTERM`` stop dispatch, let in-flight
  cells finish (flushing their checkpoints), then raise
  ``KeyboardInterrupt`` so the driver exits through the established
  interrupt path — a resumed run is byte-identical to an uninterrupted
  one.
* **Warm workers, zero-copy datasets.**  Workers persist across
  :meth:`WorkerPool.run` calls — a sweep (or several) pays the spawn cost
  once — and any :class:`~repro.data.dataset.Dataset` in a spec's params
  is transparently published to the shared-memory plane
  (:mod:`repro.resilience.shm`): the worker receives a tiny
  :class:`~repro.resilience.shm.DatasetRef` and rebuilds the dataset as
  read-only views, so the arrays cross the pipe zero times.
  :meth:`WorkerPool.close` drains and joins every worker *before*
  releasing the segments, so a cell mid-read can never see one vanish.

Retry semantics are the in-process executor's own: workers do not ship
exception objects, they classify them with
:func:`~repro.resilience.executor.classify_failure` and ship
``(status, retryable)``, and every failed attempt — a worker's result, a
fault raised at dispatch, a crash, a deadline kill — goes through the same
:func:`~repro.resilience.executor.retry_step`, so markers and attempt
counts match the in-process oracle byte for byte.
"""

from __future__ import annotations

import importlib
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Callable, Mapping, Sequence

from repro.data.dataset import Dataset
from repro.data.store.sharded import ShardedDataset
from repro.errors import CellTimeout, InternalError, ResilienceError, WorkerCrash
from repro.obs import trace as obs
from repro.resilience.executor import (
    STATUS_OK,
    CellOutcome,
    Key,
    RetryPolicy,
    classify_failure,
    retry_step,
)
from repro.resilience.faults import FaultPlan, execute_chaos_action
from repro.resilience.shm import (
    DatasetRef,
    detach_all,
    publish_dataset,
    release,
    swap_refs,
)

#: How often the scheduler wakes to notice signals and deadlines (seconds).
_POLL_INTERVAL = 0.1


# -- cell registry -----------------------------------------------------------

_REGISTRY: dict[str, Callable[..., object]] = {}


def register_cell(fn_id: str) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Register a module-level function as an addressable sweep cell.

    The decorated function becomes invocable by ``fn_id`` from any
    backend: in-process the registry is a plain lookup, and the process
    backend re-imports the function's module inside the worker (which
    re-runs this decorator) and looks the id up there.  Nested or lambda
    functions are rejected — they cannot be imported by name in a spawned
    child.  Re-registering the same function is idempotent; claiming an
    id that belongs to a different function raises
    :class:`~repro.errors.ResilienceError`.
    """
    if not fn_id or not isinstance(fn_id, str):
        raise ResilienceError(f"cell id must be a non-empty string, got {fn_id!r}")

    def decorate(fn: Callable[..., object]) -> Callable[..., object]:
        if "<locals>" in fn.__qualname__ or fn.__name__ == "<lambda>":
            raise ResilienceError(
                f"cell {fn_id!r} must be a module-level function so spawned "
                f"workers can import it; got {fn.__qualname__!r}"
            )
        existing = _REGISTRY.get(fn_id)
        if existing is not None and (
            existing.__module__ != fn.__module__
            or existing.__qualname__ != fn.__qualname__
        ):
            raise ResilienceError(
                f"cell id {fn_id!r} is already registered by "
                f"{existing.__module__}.{existing.__qualname__}"
            )
        _REGISTRY[fn_id] = fn
        return fn

    return decorate


def resolve_cell(fn_id: str, module: str | None = None) -> Callable[..., object]:
    """The registered function for ``fn_id``; imports ``module`` if needed.

    Workers pass the module recorded at dispatch time so importing it
    re-runs the :func:`register_cell` decorators and populates their own
    (initially empty) registry.
    """
    fn = _REGISTRY.get(fn_id)
    if fn is None and module is not None:
        importlib.import_module(module)
        fn = _REGISTRY.get(fn_id)
    if fn is None:
        raise ResilienceError(
            f"unknown cell id {fn_id!r}; registered ids: {sorted(_REGISTRY)}"
        )
    return fn


@dataclass(frozen=True)
class CellSpec:
    """One schedulable cell: a registered function id plus its parameters.

    ``params`` must be picklable data (datasets, configs, plain values) —
    the process backend sends it through a pipe.  The key plays the same
    role as in :meth:`~repro.resilience.executor.CellExecutor.run_cell`:
    a stable string tuple identifying the cell across runs.
    """

    key: Key
    fn_id: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "key", tuple(str(part) for part in self.key)
        )
        object.__setattr__(self, "params", dict(self.params))


# -- worker side -------------------------------------------------------------


def _failure(exc: BaseException, retry_timeouts: bool, message: str) -> dict:
    """The failure record of an attempt that raised ``exc``.

    Workers ship it as their result; the driver builds the same record for
    the failures it sees itself (dispatch faults, crashes, deadline kills).
    """
    status, retryable = classify_failure(exc, retry_timeouts)
    return {
        "status": status,
        "retryable": retryable,
        "error_type": type(exc).__name__,
        "error_message": message,
    }


def _invoke_cell(task: Mapping[str, object]) -> object:
    """Resolve the cell and its shared-dataset refs, then run it."""
    fn = resolve_cell(str(task["fn_id"]), module=str(task["module"]))
    params = swap_refs(task["params"])
    with obs.span("pool.cell_compute", fn_id=str(task["fn_id"])):
        return fn(**params)


def _run_task(task: Mapping[str, object]) -> dict:
    """Run one dispatched cell inside the worker, never raising."""
    tracer = obs.Tracer() if task.get("traced") else None
    try:
        chaos = task.get("chaos")
        if chaos is not None:
            execute_chaos_action(chaos)
        if tracer is not None:
            with obs.tracing(tracer):
                value = _invoke_cell(task)
        else:
            value = _invoke_cell(task)
        result = {"status": STATUS_OK, "value": value}
    except Exception as exc:  # repro: ignore[R007] — reported to the parent
        result = _failure(exc, task["retry_timeouts"], str(exc))
    if tracer is not None:
        result["obs"] = tracer.export()
    return result


def _worker_main(conn: mp_connection.Connection) -> None:
    """Worker loop: receive ``(task id, task)``, send ``(task id, result)``.

    SIGINT is ignored — interrupts are the parent's job (it drains or
    kills workers explicitly), and a Ctrl-C delivered to the whole
    foreground process group must not take workers down mid-cell.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _worker_loop(conn)
    finally:
        detach_all()


def _worker_loop(conn: mp_connection.Connection) -> None:
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, task = message
        result = _run_task(task)
        try:
            conn.send((task_id, result))
        except Exception as exc:  # repro: ignore[R007] — reported to the parent
            # The cell value could not be pickled back; report that as a
            # failure rather than dying with a half-written pipe.
            message = f"cell result could not be pickled: {exc}"
            conn.send((task_id, _failure(exc, task["retry_timeouts"], message)))


# -- parent side -------------------------------------------------------------


class _PendingCell:
    """Queue entry: a spec, its position in the sweep, and its attempt count."""

    __slots__ = ("index", "spec", "attempt")

    def __init__(self, index: int, spec: CellSpec) -> None:
        self.index = index
        self.spec = spec
        self.attempt = 1


class _Worker:
    """One child process slot: its pipe and the cell it is running."""

    __slots__ = ("seq", "proc", "conn", "pending", "task_id", "deadline_at")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.proc = None
        self.conn = None
        self.pending: _PendingCell | None = None
        self.task_id = 0
        self.deadline_at: float | None = None


def _describe_exit(exitcode: int | None) -> str:
    """Human-readable classification of a worker's exit status."""
    if exitcode is None:
        return "vanished without an exit status"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"killed by {name}"
    if exitcode == 0:
        return "exited cleanly without returning a result"
    return f"exited with code {exitcode}"


class WorkerPool:
    """Schedules cell specs over ``max_workers`` SIGKILL-able spawn workers.

    The pool owns process lifecycle only; retry/degradation semantics come
    from the executor's shared classifier and retry step, fault
    injection from the shared :class:`~repro.resilience.faults.FaultPlan`
    (parent-side faults fire at dispatch, worker chaos descriptors ship
    with the task), and checkpointing stays in the driver via the
    ``on_complete`` callback — the pool never touches disk.
    """

    def __init__(
        self,
        max_workers: int,
        policy: RetryPolicy | None = None,
        deadline: float | None = None,
        faults: FaultPlan | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_workers < 1:
            raise ResilienceError(f"max_workers must be >= 1, got {max_workers}")
        if deadline is not None and deadline <= 0:
            raise ResilienceError(f"deadline must be positive, got {deadline}")
        self.max_workers = max_workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.deadline = deadline
        self.faults = faults
        self.sleep = sleep
        self._ctx = get_context("spawn")
        self._workers: list[_Worker] = []
        self._queue: deque[_PendingCell] = deque()
        self._results: dict[int, CellOutcome] = {}
        self._on_complete: Callable[[int, CellOutcome], None] | None = None
        self._next_task_id = 1
        self._interrupted = False
        self._closed = False
        # Shared-dataset plane bookkeeping: refs by dataset identity, plus
        # a keepalive list so id() values stay unique for the pool's life.
        self._dataset_refs: dict[int, DatasetRef] = {}
        self._published: list[Dataset] = []

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        with obs.span("pool.spawn", worker=worker.seq):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn
        worker.pending = None
        worker.deadline_at = None

    def _respawn(self, worker: _Worker) -> None:
        if worker.conn is not None:
            worker.conn.close()
        if worker.proc is not None and worker.proc.is_alive():
            worker.proc.kill()
        if worker.proc is not None:
            worker.proc.join()
        self._spawn(worker)
        obs.count("pool.respawns")

    def _ensure_workers(self, n_tasks: int) -> None:
        """Grow the warm worker set to cover ``n_tasks`` (never shrink).

        Workers persist across :meth:`run` calls, so a multi-sweep driver
        pays the spawn cost once; dead slots found between sweeps are
        respawned lazily by the dispatch path.
        """
        target = min(self.max_workers, max(n_tasks, len(self._workers)))
        while len(self._workers) < target:
            worker = _Worker(len(self._workers))
            self._spawn(worker)
            self._workers.append(worker)

    def _shutdown(self) -> None:
        for worker in self._workers:
            if worker.conn is not None:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError, BrokenPipeError):
                    pass
        for worker in self._workers:
            if worker.proc is not None:
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join()
            if worker.conn is not None:
                worker.conn.close()
        self._workers = []

    def close(self) -> None:
        """Tear the pool down: drain/join workers, then release segments.

        The ordering is the point — every worker is joined (so no cell can
        be mid-read on a shared buffer) *before* any segment reference is
        released.  Releasing first would let a still-running cell attach a
        name that no longer exists.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown()
        for ref in self._dataset_refs.values():
            release(ref.segment)
        self._dataset_refs.clear()
        self._published.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _on_signal(self, signum: int, frame: object) -> None:
        self._interrupted = True

    # -- shared-dataset plane ----------------------------------------------

    def _swap_datasets(self, params: Mapping[str, object]) -> dict[str, object]:
        """Params with every dataset value replaced by a shippable handle.

        In-memory :class:`Dataset` values are published once to the shared
        memory plane and shipped as ``DatasetRef``s; on-disk
        :class:`~repro.data.store.ShardedDataset` values are shipped as tiny
        :class:`~repro.data.store.StoreRef`s — workers re-open the store and
        memory-map only the shards their cells reduce over, so a 10⁷-row
        sweep never copies the table into every worker.
        """
        swapped = dict(params)
        for name, value in params.items():
            # ShardedDataset is a Dataset: test it first, so an edited store
            # raises in store_ref() instead of being copied into /dev/shm.
            if isinstance(value, ShardedDataset):
                swapped[name] = value.store_ref()
            elif isinstance(value, Dataset):
                ref = self._dataset_refs.get(id(value))
                if ref is None:
                    ref = publish_dataset(value)
                    self._dataset_refs[id(value)] = ref
                    self._published.append(value)
                swapped[name] = ref
        return swapped

    # -- scheduling --------------------------------------------------------

    def run(
        self,
        tasks: Sequence[tuple[int, CellSpec]],
        on_complete: Callable[[int, CellOutcome], None] | None = None,
    ) -> dict[int, CellOutcome]:
        """Run ``(index, spec)`` tasks to completion; outcomes by index.

        ``on_complete`` fires in the parent once per finished cell (in
        completion order, which under parallelism is not spec order) —
        the executor uses it to flush checkpoints so a ``kill -9`` of the
        *driver* still resumes cleanly.  On SIGINT/SIGTERM the pool stops
        dispatching, drains in-flight cells, then raises
        ``KeyboardInterrupt``.

        Workers stay warm after the call returns — the pool is reusable
        for further sweeps until :meth:`close` tears it down (which also
        releases any shared-memory datasets it published).
        """
        if self._closed:
            raise ResilienceError("pool is closed; create a new WorkerPool")
        self._results = {}
        if not tasks:
            return self._results
        self._on_complete = on_complete
        self._queue = deque(_PendingCell(index, spec) for index, spec in tasks)
        self._interrupted = False
        on_main = threading.current_thread() is threading.main_thread()
        previous_handlers = {}
        if on_main:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(signum, self._on_signal)
        try:
            self._ensure_workers(len(tasks))
            self._loop()
        finally:
            if on_main:
                for signum, handler in previous_handlers.items():
                    signal.signal(signum, handler)
        if self._interrupted:
            raise KeyboardInterrupt
        return self._results

    def _loop(self) -> None:
        while True:
            draining = self._interrupted
            if not draining:
                for worker in self._workers:
                    while worker.pending is None and self._queue:
                        self._dispatch(worker, self._queue.popleft())
                        if self._interrupted:
                            break
                    if self._interrupted:
                        break
            busy = [w for w in self._workers if w.pending is not None]
            if not busy:
                if draining or not self._queue:
                    return
                continue
            timeout = _POLL_INTERVAL
            now = time.monotonic()
            for worker in busy:
                if worker.deadline_at is not None:
                    timeout = min(timeout, max(worker.deadline_at - now, 0.0))
            ready = mp_connection.wait([w.conn for w in busy], timeout=timeout)
            for conn in ready:
                for worker in busy:
                    if worker.conn is conn:
                        self._receive(worker)
                        break
            now = time.monotonic()
            for worker in busy:
                if (
                    worker.pending is not None
                    and worker.deadline_at is not None
                    and now >= worker.deadline_at
                    and not worker.conn.poll()
                ):
                    self._kill_on_deadline(worker)

    def _dispatch(self, worker: _Worker, item: _PendingCell) -> None:
        """Send ``item`` to ``worker``, consulting the fault plan first.

        Parent-side faults (transient/permanent/``nth_call``) raise here,
        consuming the attempt exactly as the in-process backend would;
        worker chaos (crash/hang) travels with the task as a descriptor.
        """
        key = item.spec.key
        chaos = None
        if self.faults is not None:
            try:
                self.faults.on_attempt(key, item.attempt)
            except Exception as exc:  # repro: ignore[R007] — degraded, by design
                self._failed(item, exc)
                return
            chaos = self.faults.worker_action(key, item.attempt)
        fn = resolve_cell(item.spec.fn_id)
        task_id = self._next_task_id
        self._next_task_id += 1
        task = {
            "fn_id": item.spec.fn_id,
            "module": fn.__module__,
            "params": self._swap_datasets(item.spec.params),
            "chaos": chaos,
            "traced": obs.current_tracer() is not None,
            "retry_timeouts": self.policy.retry_timeouts,
        }
        # Pickled once here (not via conn.send) so the shipped byte count
        # is observable; datasets were swapped for refs above, so this is
        # small no matter how large the data.
        with obs.span("pool.ship", key="/".join(key)):
            blob = pickle.dumps((task_id, task))
            try:
                worker.conn.send_bytes(blob)
            except (OSError, ValueError, BrokenPipeError):
                # The worker died between cells; replace it and try again.
                self._respawn(worker)
                worker.conn.send_bytes(blob)
        obs.count("pool.bytes_shipped", len(blob))
        worker.pending = item
        worker.task_id = task_id
        worker.deadline_at = (
            time.monotonic() + self.deadline if self.deadline is not None else None
        )
        obs.count("pool.dispatched")

    def _receive(self, worker: _Worker) -> None:
        item = worker.pending
        try:
            task_id, result = worker.conn.recv()
        except (EOFError, OSError):
            self._crashed(worker)
            return
        if task_id != worker.task_id:
            raise InternalError(
                f"worker {worker.seq} answered task {task_id}, "
                f"expected {worker.task_id}"
            )
        worker.pending = None
        worker.deadline_at = None
        payload = result.get("obs")
        if payload is not None:
            tracer = obs.current_tracer()
            # This IS the obs bridge: forwarding worker span payloads to
            # the driver tracer.  The branch only gates telemetry
            # delivery, never cell semantics.
            if tracer is not None:  # repro: ignore[R012]
                tracer.absorb(payload, worker=worker.seq)
        if result["status"] == STATUS_OK:
            self._complete(
                item,
                CellOutcome(
                    key=item.spec.key,
                    status=STATUS_OK,
                    value=result["value"],
                    attempts=item.attempt,
                ),
            )
            return
        self._attempt_failed(item, result)

    def _crashed(self, worker: _Worker) -> None:
        """Classify a worker that died mid-cell and retry or degrade."""
        item = worker.pending
        worker.proc.join()
        exitcode = worker.proc.exitcode
        message = (
            f"worker {_describe_exit(exitcode)} while running "
            f"{'/'.join(item.spec.key)} (attempt {item.attempt})"
        )
        obs.count("pool.worker_crashes")
        obs.event(
            "pool.worker_crash",
            key="/".join(item.spec.key),
            attempt=item.attempt,
            exitcode=exitcode,
        )
        self._respawn(worker)
        self._failed(item, WorkerCrash(message))

    def _kill_on_deadline(self, worker: _Worker) -> None:
        """SIGKILL a worker whose cell overran the deadline; respawn it."""
        item = worker.pending
        worker.proc.kill()
        worker.proc.join()
        obs.count("pool.worker_kills")
        self._respawn(worker)
        self._failed(
            item,
            CellTimeout(
                f"cell exceeded the {self.deadline:.3f}s deadline; worker killed"
            ),
        )

    def _failed(self, item: _PendingCell, exc: BaseException) -> None:
        self._attempt_failed(item, _failure(exc, self.policy.retry_timeouts, str(exc)))

    def _attempt_failed(self, item: _PendingCell, failure: Mapping) -> None:
        """Retry ``item`` or complete it with the ``failure`` record."""
        if retry_step(
            self.policy,
            self.sleep,
            item.spec.key,
            item.attempt,
            failure["status"],
            failure["retryable"],
            failure["error_type"],
        ):
            item.attempt += 1
            self._queue.appendleft(item)
            return
        self._complete(
            item,
            CellOutcome(
                key=item.spec.key,
                status=failure["status"],
                error_type=failure["error_type"],
                error_message=failure["error_message"],
                attempts=item.attempt,
            ),
        )

    def _complete(self, item: _PendingCell, outcome: CellOutcome) -> None:
        self._results[item.index] = outcome
        if self._on_complete is not None:
            self._on_complete(item.index, outcome)
