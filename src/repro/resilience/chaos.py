"""Chaos drills: every crash the project claims to survive, proven end to end.

:data:`DRILLS` tags each drill with the CI stage that runs it.  Most are
:class:`Scenario` rows of one shape: run a CLI command that dies — armed
through the ``REPRO_CHAOS`` plan :func:`repro.data.io.chaos_point` reads at
its crash sites, or SIGKILLed from outside once a condition holds — check
its exit code, run the recovery, and compare with the clean run.  Drills
whose victim is a worker pool or an HTTP server are :class:`Drill`
functions over the same primitives.  A :class:`Lab` kills and reaps every
child a stage starts, on every exit path.  ``docs/resilience.md`` ("Chaos
drills") tables each drill's crash and oracle.

Run one stage::

    PYTHONPATH=src python -m repro.resilience.chaos --stage stream-chaos
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.data.io import CHAOS_ENV, atomic_write_json
from repro.data.store.format import (
    LABELS_FILE,
    manifest_digest,
    read_manifest,
    shard_dir_name,
)
from repro.data.store.registry import Registry
from repro.data.synth import load_compas
from repro.errors import InternalError, TransportError
from repro.experiments.robustness import run_seed_sweep
from repro.obs import Tracer, tracing
from repro.resilience.executor import (
    BACKEND_INPROC,
    BACKEND_PROCESS,
    CellExecutor,
    RetryPolicy,
)
from repro.resilience.faults import (
    CRASH_EXIT,
    CRASH_EXIT_CODE,
    CRASH_SIGKILL,
    CrashFault,
    FaultPlan,
    HangFault,
    seeded_transients,
)
from repro.resilience.shm import SEGMENT_PREFIX, published_segments
from repro.serve.client import GatewayClient
from repro.serve.remedy import REMEDY_APPLIED
from repro.stream.journal import _SEGMENT_RE, CURRENT_FILE
from repro.stream.service import read_batches_file

REPRO = (sys.executable, "-m", "repro")
#: Bound on any one child command, wait or kill window.
TIMEOUT = 300.0
KILLED = -signal.SIGKILL

#: Robustness sweeps: rows, seeds and pool size.  The per-cell deadline is
#: DEADLINE_FACTOR times the slowest cell of a timed clean sweep of the same
#: cells, never under DEADLINE_FLOOR seconds: generous against a loaded box,
#: yet a hung cell is killed within seconds (see faulted_sweep).
SWEEP_ROWS = 800
SMOKE_SEEDS = (0, 1, 2)
CHAOS_SEEDS = (0, 1, 2, 3, 4)
DEADLINE_FACTOR = 10.0
DEADLINE_FLOOR = 5.0
WORKERS = 2

#: The stream workload, and the batch the stream and gateway plans arm.
N_BATCHES = 40
DELTAS_PER_BATCH = 50
VICTIM_BATCH = "b0020"

STORE_ROWS = 20_000
SHARD_ROWS = 4_000
VICTIM_SHARD = 2

FETCH_DATASET = "chaosset"
FETCH_VICTIM_FILE = f"{shard_dir_name(1)}/{LABELS_FILE}"
#: The drills restart the gateway themselves, so client retries stay short.
CLIENT_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01)


def chaos_plan(site: str, key: str, fault: CrashFault | HangFault) -> dict:
    """The ``REPRO_CHAOS`` plan that fires ``fault`` once at ``site``/``key``."""
    return {"site": site, "key": key, "action": fault.worker_action((site, key), 1)}


# -- processes --------------------------------------------------------------------

class Lab:
    """One stage's scratch directory and every child process it starts.

    Leaving the ``with`` block kills and reaps every child still running,
    whether the stage passed or raised, then deletes the directory.
    """

    def __init__(self, prefix: str) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix=prefix)
        self.root = Path(self._tmp.name)
        self._children: list[subprocess.Popen] = []

    def __enter__(self) -> "Lab":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for proc in self._children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdout, proc.stderr):
                if pipe is not None:
                    pipe.close()
        self._tmp.cleanup()

    def workdir(self) -> Path:
        """A fresh directory for one drill."""
        return Path(tempfile.mkdtemp(dir=self.root))

    def start(
        self, argv: list[str], plan: dict | None = None, stdout: int = subprocess.PIPE
    ) -> subprocess.Popen:
        """Start a child with ``plan`` (or no plan) in ``REPRO_CHAOS``."""
        env = dict(os.environ)
        env.pop(CHAOS_ENV, None)
        if plan is not None:
            env[CHAOS_ENV] = json.dumps(plan)
        proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)
        self._children.append(proc)
        return proc

    def run(self, argv: list[str]) -> bytes:
        """Run an unarmed command, which must exit 0; return its stdout."""
        return finish(self.start(argv), 0, " ".join(argv[3:]))

    def serve(
        self, stream_dir: Path, *args: str, port: int = 0, plan: dict | None = None
    ) -> tuple[subprocess.Popen, int]:
        """Start ``repro serve``; return it and its port once it is ready."""
        proc = self.start(
            [*REPRO, "serve", str(stream_dir), "--port", str(port), *args], plan
        )
        ready = proc.stdout.readline()
        if not ready:
            proc.wait(timeout=TIMEOUT)
            raise InternalError(
                f"server on {stream_dir} died before its ready line (exit "
                f"{proc.returncode}): {proc.stderr.read().decode(errors='replace')}"
            )
        return proc, int(json.loads(ready)["port"])

    @functools.cached_property
    def workload(self) -> tuple[Path, Path]:
        """The schema and batches files the stream and gateway drills share."""
        return write_workload(self.root)

    @functools.cached_property
    def clean(self) -> bytes:
        """Replay of an uninterrupted ingest of the workload: the oracle."""
        stream_dir = init_stream(self, self.root / "clean")
        self.run(stream_cmd("ingest", stream_dir, self.workload[1]))
        out = replay(self, stream_dir)
        if b"digest" not in out:
            raise InternalError("clean replay printed no state digest")
        return out


def finish(proc: subprocess.Popen, want: int, what: str) -> bytes:
    """Wait for ``proc``, which must exit ``want``; return its stdout."""
    try:
        out, err = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        raise InternalError(f"{what}: still running after {TIMEOUT:.0f}s") from None
    if proc.returncode != want:
        raise InternalError(
            f"{what}: exited {proc.returncode}, expected {want}: "
            f"{err.decode(errors='replace')}"
        )
    return out or b""


def drain(proc: subprocess.Popen) -> None:
    """SIGTERM a server: it must finish in-flight work, say so, and exit 0."""
    proc.send_signal(signal.SIGTERM)
    if b"drained" not in finish(proc, 0, "drain"):
        raise InternalError("drained server never said 'drained'")


def assert_no_shm_leaks(context: str) -> None:
    """Every ``repro-shm-*`` segment must leave ``/dev/shm`` within the timeout.

    The wait covers the asynchronous reclaim paths: the resource tracker
    unlinks a SIGKILLed driver's segments only once it notices the death,
    and orphaned workers may briefly outlive their driver.
    """
    shm_dir = Path("/dev/shm")
    deadline = time.monotonic() + 10.0
    while shm_dir.is_dir():
        leaked = sorted(
            p.name for p in shm_dir.iterdir() if p.name.startswith(SEGMENT_PREFIX)
        )
        if not leaked:
            return
        if time.monotonic() > deadline:
            raise InternalError(f"shared-memory segments leaked after {context}: {leaked}")
        time.sleep(0.05)


# -- the stream workload ----------------------------------------------------------

def write_workload(directory: Path) -> tuple[Path, Path]:
    """Write the schema and batches files of the stream workload.

    The workload is seeded and id-stable: mostly inserts over three
    protected attributes plus a numeric feature, with deletes and relabels
    aimed at rows known to be alive, so every batch is valid and the only
    nondeterminism left for the byte-compare to catch is the system's.
    """
    schema_path = directory / "schema.json"
    atomic_write_json(
        schema_path,
        {
            "columns": [
                {"name": "age", "kind": "categorical", "domain": ["<30", ">=30"]},
                {"name": "race", "kind": "categorical", "domain": ["a", "b", "c"]},
                {"name": "sex", "kind": "categorical", "domain": ["f", "m"]},
                {"name": "score", "kind": "numeric"},
            ],
            "protected": ["age", "race", "sex"],
        },
    )
    rng = np.random.default_rng(7)
    alive: list[int] = []
    next_row = 0
    lines = []
    for b in range(N_BATCHES):
        deltas = []
        for _ in range(DELTAS_PER_BATCH):
            roll = float(rng.random())
            if roll < 0.85 or len(alive) < 10:
                values = [
                    int(rng.integers(2)),
                    int(rng.integers(3)),
                    int(rng.integers(2)),
                    round(float(rng.random()), 6),
                ]
                # Skew labels by cell so regions actually cross tau_c.
                label = 1 if rng.random() < (0.2 + 0.6 * (values[1] == 0)) else 0
                deltas.append(["i", values, label])
                alive.append(next_row)
                next_row += 1
            elif roll < 0.93:
                deltas.append(["d", alive.pop(int(rng.integers(len(alive))))])
            else:
                row = alive[int(rng.integers(len(alive)))]
                deltas.append(["r", row, int(rng.integers(2))])
        lines.append(json.dumps({"id": f"b{b:04d}", "deltas": deltas}))
    batches_path = directory / "batches.jsonl"
    batches_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return schema_path, batches_path


def stream_cmd(*tail: object) -> list[str]:
    """``repro stream ...`` with every argument as a string."""
    return [*REPRO, "stream", *map(str, tail)]


def init_stream(lab: Lab, stream_dir: Path) -> Path:
    """``repro stream init`` over the workload schema, small segments."""
    lab.run(
        stream_cmd(
            "init", stream_dir, "--schema", lab.workload[0],
            "--tau-c", "0.1", "--k", "10", "--segment-bytes", "8192",
        )
    )
    return stream_dir


def replay(lab: Lab, stream_dir: Path) -> bytes:
    """``repro stream replay`` stdout: the byte-compare target."""
    return lab.run(stream_cmd("replay", stream_dir))


def assert_recovered(lab: Lab, stream_dir: Path, want: bytes) -> None:
    """Replay must equal ``want`` byte for byte, and every segment on disk
    must belong to the ``CURRENT`` generation (no orphans)."""
    if replay(lab, stream_dir) != want:
        raise InternalError("replay diverges from the uninterrupted run")
    generation = json.loads((stream_dir / CURRENT_FILE).read_text())["generation"]
    stray = [
        p.name
        for p in stream_dir.iterdir()
        if (m := _SEGMENT_RE.match(p.name)) and int(m.group(1)) != generation
    ]
    if stray:
        raise InternalError(f"orphan segments survived recovery: {stray}")


# -- crash-and-recover scenarios --------------------------------------------------

@dataclass(frozen=True)
class Drill:
    """A drill that does not fit the :class:`Scenario` shape."""

    stage: str
    name: str
    run: Callable[[Lab], None]


@dataclass(frozen=True)
class Scenario:
    """A crash-and-recover drill as one table row.

    ``prepare`` builds the pre-crash state in a fresh work directory and
    returns the victim command.  The victim runs with ``plan`` armed and,
    when ``kill_when`` is given, is SIGKILLed from outside once
    ``kill_when(work)`` holds; it must exit ``want``.  ``inspect`` then
    checks (or damages) the crashed state, ``recover`` turns the victim
    command into the recovery command, which runs unarmed and must exit 0,
    and ``oracle`` compares the outcome with the clean run.
    """

    stage: str
    name: str
    prepare: Callable[[Lab, Path], list[str]]
    oracle: Callable[[Lab, Path, bytes], None]
    want: int = 0
    plan: dict | None = None
    kill_when: Callable[[Path], bool] | None = None
    inspect: Callable[[Lab, Path], None] | None = None
    recover: Callable[[list[str]], list[str]] = list

    def run(self, lab: Lab) -> None:
        """Crash the victim, recover, and check the oracle."""
        work = lab.workdir()
        argv = self.prepare(lab, work)
        victim = lab.start(argv, self.plan, stdout=subprocess.DEVNULL)
        if self.kill_when is not None:
            deadline = time.monotonic() + TIMEOUT
            while not self.kill_when(work):
                if victim.poll() is not None or time.monotonic() > deadline:
                    raise InternalError(
                        f"kill window never opened (victim exit {victim.returncode})"
                    )
                time.sleep(0.02)
            victim.kill()
        finish(victim, self.want, "victim")
        if self.inspect is not None:
            self.inspect(lab, work)
        self.oracle(lab, work, lab.run(self.recover(argv)))


def _ingest_all(lab: Lab, work: Path) -> list[str]:
    return stream_cmd("ingest", init_stream(lab, work / "stream"), lab.workload[1])


def _replays_clean(lab: Lab, work: Path, _out: bytes) -> None:
    assert_recovered(lab, work / "stream", lab.clean)


def _victim_journalled(work: Path) -> bool:
    needle = f'"id":"{VICTIM_BATCH}"'.encode()
    return any(
        _SEGMENT_RE.match(p.name) and needle in p.read_bytes()
        for p in (work / "stream").iterdir()
    )


def _tear_tail(lab: Lab, work: Path) -> None:
    """Cut the final journal record mid-line: a torn append."""
    last = max(p for p in (work / "stream").iterdir() if _SEGMENT_RE.match(p.name))
    data = last.read_bytes()
    cut = data.rstrip(b"\n").rfind(b"\n")
    # Keep half of the final line; a single-record segment tears at half.
    keep = cut + 1 + (len(data) - cut) // 2 if cut >= 0 else len(data) // 2
    last.write_bytes(data[:keep])


def _compacted_half(lab: Lab, work: Path) -> list[str]:
    """Ingest half the workload and compact, in the victim's directory and
    in an oracle one that then ingests the rest uninterrupted, so both
    journals rebase at the same seq."""
    lines = lab.workload[1].read_text(encoding="utf-8").splitlines()
    first, second = work / "first.jsonl", work / "second.jsonl"
    first.write_text("\n".join(lines[: N_BATCHES // 2]) + "\n")
    second.write_text("\n".join(lines[N_BATCHES // 2:]) + "\n")
    for name in ("oracle", "stream"):
        stream_dir = init_stream(lab, work / name)
        lab.run(stream_cmd("ingest", stream_dir, first))
        lab.run(stream_cmd("compact", stream_dir))
    lab.run(stream_cmd("ingest", work / "oracle", second))
    return stream_cmd("ingest", work / "stream", second)


def _replays_compacted(lab: Lab, work: Path, _out: bytes) -> None:
    assert_recovered(lab, work / "stream", replay(lab, work / "oracle"))


def _materialize(lab: Lab, work: Path) -> list[str]:
    return [
        *REPRO, "data", "materialize", "torn", "--root", str(work),
        "--rows", str(STORE_ROWS), "--shard-rows", str(SHARD_ROWS),
    ]


def _no_partial_entry(lab: Lab, work: Path) -> None:
    """The crashed write is invisible, and prune sweeps its orphan."""
    registry = Registry(work)
    if "torn" in registry.names():
        raise InternalError("a SIGKILLed materialize left a partial entry in list()")
    if not registry.tmp_dirs():
        raise InternalError("no .tmp-* directory: the kill window was never entered")
    lab.run([*REPRO, "data", "verify", "--root", str(work)])
    if not registry.prune()["swept"] or registry.tmp_dirs():
        raise InternalError("prune failed to sweep the orphaned .tmp-* directory")


def _rematerialized(lab: Lab, work: Path, _out: bytes) -> None:
    n_rows = Registry(work).verify("torn")["n_rows"]
    if n_rows != STORE_ROWS:
        raise InternalError(f"re-materialized store has {n_rows} rows, not {STORE_ROWS}")
    lab.run([*REPRO, "data", "prune", "torn", "--root", str(work)])


def _sweep_cmd(checkpoint: Path) -> list[str]:
    return [
        *REPRO, "experiment", "robustness", "--rows", str(SWEEP_ROWS),
        "--models", "dt", "--backend", BACKEND_PROCESS, "--workers", str(WORKERS),
        "--checkpoint", str(checkpoint),
    ]


def _clean_sweep(lab: Lab, work: Path) -> list[str]:
    (work / "clean.out").write_bytes(lab.run(_sweep_cmd(work / "clean.json")))
    return _sweep_cmd(work / "killed.json")


def _partial_checkpoint(work: Path) -> bool:
    try:
        cells = len(json.loads((work / "killed.json").read_text()).get("cells", {}))
    except (OSError, ValueError):
        return False
    return 1 <= cells < len(CHAOS_SEEDS)


def _killed_mid_sweep(lab: Lab, work: Path) -> None:
    if not _partial_checkpoint(work):
        raise InternalError("the checkpoint does not hold some-but-not-all cells")


def _resumed_as_clean(lab: Lab, work: Path, out: bytes) -> None:
    if out != (work / "clean.out").read_bytes():
        raise InternalError("resumed sweep stdout diverges from the uninterrupted run")
    # The SIGKILLed driver never ran its atexit sweep: the resource tracker
    # must have reclaimed its segments.
    assert_no_shm_leaks("driver SIGKILL + resume")


# -- worker sweeps ----------------------------------------------------------------

def _timed_clean_sweep(data: Dataset, seeds: tuple[int, ...]) -> tuple[float, str]:
    """A clean in-process sweep: its per-cell deadline and its table.

    The deadline is :data:`DEADLINE_FACTOR` times the slowest cell's wall
    time, read from the executor's ``cell`` spans, and at least
    :data:`DEADLINE_FLOOR` seconds.
    """
    tracer = Tracer()
    with tracing(tracer):
        table = run_seed_sweep(data, "ProPublica", seeds=seeds).table()
    slowest = max(span.wall for span in tracer.spans if span.name == "cell")
    return max(DEADLINE_FLOOR, DEADLINE_FACTOR * slowest), table


def faulted_sweep(
    faults: FaultPlan | Callable[[float], FaultPlan],
    backend: str,
    seeds: tuple[int, ...],
) -> str:
    """Run a robustness sweep under ``faults`` and return its table.

    ``faults`` is a plan, or a function from the per-cell deadline to a
    plan (so a hang can be scaled to it); the deadline comes from a timed
    clean in-process sweep of the same cells (:func:`_timed_clean_sweep`).
    Every cell must complete, each faulted cell with exactly one extra
    attempt and every other cell in one, and the table must equal the
    clean sweep's byte for byte.  On the process backend the dataset must
    have gone through shared memory and ``/dev/shm`` must be clean after
    ``close()``.
    """
    data = load_compas(SWEEP_ROWS, seed=11)
    deadline, clean = _timed_clean_sweep(data, seeds)
    if callable(faults):
        faults = faults(deadline)
    executor = CellExecutor(
        policy=RetryPolicy(max_attempts=3, retry_timeouts=True),
        deadline=deadline,
        faults=faults,
        backend=backend,
        max_workers=WORKERS,
    )
    process = backend == BACKEND_PROCESS
    try:
        result = run_seed_sweep(data, "ProPublica", seeds=seeds, executor=executor)
        if process and not published_segments():
            raise InternalError("the sweep published no shared-memory segment")
    finally:
        executor.close()
    if result.failures:
        raise InternalError(f"sweep lost cells despite retries: {result.failures}")
    if len(result.outcomes) != len(seeds):
        raise InternalError(f"sweep completed {len(result.outcomes)} of {len(seeds)} cells")
    for outcome in executor.outcomes:
        want = 2 if outcome.key in faults.faulty_keys else 1
        if outcome.attempts != want:
            raise InternalError(
                f"cell {outcome.key} took {outcome.attempts} attempts, expected {want}"
            )
    if process:
        if published_segments():
            raise InternalError(f"close() left segments published: {published_segments()}")
        assert_no_shm_leaks("worker chaos + executor.close()")
    if result.table() != clean:
        raise InternalError("faulted sweep table diverges from the clean in-process sweep")
    return result.table()


def _transient_sweep(lab: Lab) -> None:
    keys = [("robustness", str(seed)) for seed in SMOKE_SEEDS]
    faults = seeded_transients(keys, seed=0, rate=1.0, times=1)
    print(faulted_sweep(faults, BACKEND_INPROC, SMOKE_SEEDS))


def _worker_faults(deadline: float) -> FaultPlan:
    return FaultPlan(
        cells={
            ("robustness", "0"): CrashFault(mode=CRASH_EXIT),
            ("robustness", "1"): CrashFault(mode=CRASH_SIGKILL),
            ("robustness", "2"): HangFault(seconds=10 * deadline),
        }
    )


def _worker_chaos_sweep(lab: Lab) -> None:
    print(faulted_sweep(_worker_faults, BACKEND_PROCESS, CHAOS_SEEDS))


# -- gateway drills ---------------------------------------------------------------

def _client(port: int) -> GatewayClient:
    return GatewayClient("127.0.0.1", port, retry=CLIENT_RETRY)


def _converge(
    lab: Lab, stream_dir: Path, proc: subprocess.Popen, port: int, want: int, *args: str
) -> tuple[subprocess.Popen, dict, int]:
    """Ingest every workload batch through the gateway, restarting it
    (unarmed, same port) each time it dies; return the live server, the
    acks by batch id and the number of restarts."""
    acked: dict[str, dict] = {}
    restarts = 0
    for batch_id, deltas in read_batches_file(lab.workload[1]):
        while batch_id not in acked:
            try:
                acked[batch_id] = _client(port).ingest(batch_id, deltas)
            except TransportError:
                if proc.poll() is None:
                    raise InternalError(
                        f"transport fault on {batch_id!r} but the server is alive"
                    ) from None
                finish(proc, want, "armed gateway")
                restarts += 1
                proc, port = lab.serve(stream_dir, *args, port=port)
    return proc, acked, restarts


def gateway_crash(lab: Lab, mode: str) -> None:
    """Crash the gateway after the victim batch is journalled, mid-request;
    the retry loop must converge with every batch acked exactly once."""
    stream_dir = init_stream(lab, lab.workdir() / "stream")
    plan = chaos_plan("stream.append", VICTIM_BATCH, CrashFault(mode=mode))
    proc, port = lab.serve(stream_dir, plan=plan)
    want = CRASH_EXIT_CODE if mode == CRASH_EXIT else KILLED
    proc, acked, restarts = _converge(lab, stream_dir, proc, port, want)
    drain(proc)
    if restarts != 1:
        raise InternalError(f"armed crash fired {restarts} times")
    if len(acked) != N_BATCHES:
        raise InternalError(f"{len(acked)} of {N_BATCHES} batches acked")
    if not acked[VICTIM_BATCH]["duplicate"]:
        raise InternalError("journalled victim batch was not deduped on retry")
    assert_recovered(lab, stream_dir, lab.clean)


def fetch_crash(lab: Lab) -> None:
    """SIGKILL the gateway halfway through a shard body; a retry must install."""
    work = lab.workdir()
    source, dest = work / "registry", work / "fetched"
    lab.run(
        [
            *REPRO, "data", "materialize", FETCH_DATASET, "--root", str(source),
            "--rows", "3000", "--shard-rows", "1000", "--seed", "5",
        ]
    )
    stream_dir = init_stream(lab, work / "stream")
    plan = chaos_plan("serve.fetch", FETCH_VICTIM_FILE, CrashFault(mode=CRASH_SIGKILL))
    proc, port = lab.serve(stream_dir, "--registry", str(source), plan=plan)
    try:
        _client(port).fetch_dataset(FETCH_DATASET, dest)
    except TransportError:
        pass
    else:
        raise InternalError("armed fetch kill never fired")
    finish(proc, KILLED, "armed gateway")
    if not Registry(dest).tmp_dirs():
        raise InternalError("the interrupted fetch left no .tmp-* staging directory")
    proc, port = lab.serve(stream_dir, "--registry", str(source), port=port)
    installed = _client(port).fetch_dataset(FETCH_DATASET, dest)
    drain(proc)
    if manifest_digest(read_manifest(installed)) != manifest_digest(
        read_manifest(source / FETCH_DATASET)
    ):
        raise InternalError("installed manifest digest diverges from the source")
    if Registry(dest).tmp_dirs():
        raise InternalError(f".tmp-* leftovers after install: {Registry(dest).tmp_dirs()}")
    if Registry(source).live_leases(FETCH_DATASET):
        raise InternalError("stale live lease on the source store")
    Registry(dest).verify(FETCH_DATASET)


def remedy_crash(lab: Lab) -> None:
    """SIGKILL a ``--remedy`` gateway mid-ingest; its digest, replay and
    remedy count must match an uninterrupted ``--remedy`` run's."""
    work = lab.workdir()
    batches = read_batches_file(lab.workload[1])
    clean_dir = init_stream(lab, work / "clean")
    proc, port = lab.serve(clean_dir, "--remedy")
    acks = [_client(port).ingest(batch_id, deltas) for batch_id, deltas in batches]
    clean_digest = _client(port).health()["stream"]["digest"]
    drain(proc)
    n_applied = sum(a.get("remedy", {}).get("status") == REMEDY_APPLIED for a in acks)
    if not n_applied:
        raise InternalError("the workload triggered no automated remedy")
    # Victim: the last batch that raised no new alarm, so the crash cannot
    # eat a remedy trigger and the convergence oracle stays exact.
    quiet = [bid for (bid, _), ack in zip(batches, acks) if ack["alarms_raised"] == 0]
    if not quiet:
        raise InternalError("every batch raised an alarm edge")

    chaos_dir = init_stream(lab, work / "chaos")
    plan = chaos_plan("stream.append", quiet[-1], CrashFault(mode=CRASH_SIGKILL))
    proc, port = lab.serve(chaos_dir, "--remedy", plan=plan)
    proc, acked, restarts = _converge(lab, chaos_dir, proc, port, KILLED, "--remedy")
    chaos_digest = _client(port).health()["stream"]["digest"]
    drain(proc)
    if restarts != 1:
        raise InternalError(f"armed crash fired {restarts} times")
    if chaos_digest != clean_digest:
        raise InternalError(f"digests diverge: {chaos_digest} vs {clean_digest}")
    assert_recovered(lab, chaos_dir, replay(lab, clean_dir))
    n_remedies = sum(
        a.get("remedy", {}).get("status") == REMEDY_APPLIED for a in acked.values()
    )
    if n_remedies != n_applied:
        raise InternalError(f"{n_remedies} remedies across the crash, {n_applied} clean")


def drain_gateway(lab: Lab) -> None:
    """SIGTERM mid-life: drain, go quiet, and leave a journal that replays clean."""
    stream_dir = init_stream(lab, lab.workdir() / "stream")
    proc, port = lab.serve(stream_dir)
    for batch_id, deltas in read_batches_file(lab.workload[1]):
        _client(port).ingest(batch_id, deltas)
    drain(proc)
    try:
        _client(port).health()
    except TransportError:
        pass
    else:
        raise InternalError("drained server still answers")
    assert_recovered(lab, stream_dir, lab.clean)


# -- the table --------------------------------------------------------------------

_APPEND_EXIT = chaos_plan("stream.append", VICTIM_BATCH, CrashFault(mode=CRASH_EXIT))

#: Every drill, in run order, tagged with the CI stage that runs it.
DRILLS: tuple[Drill | Scenario, ...] = (
    Drill("experiments-smoke", "transient fault in every cell (inproc)", _transient_sweep),
    Drill(
        "chaos",
        "worker os._exit, SIGKILL and past-deadline hang (process, shared memory)",
        _worker_chaos_sweep,
    ),
    Scenario(
        "chaos", "driver SIGKILL mid-sweep, then --resume",
        prepare=_clean_sweep, kill_when=_partial_checkpoint, want=KILLED,
        inspect=_killed_mid_sweep, recover=lambda argv: [*argv, "--resume"],
        oracle=_resumed_as_clean,
    ),
    Scenario(
        "stream-chaos", "os._exit after the journal append",
        prepare=_ingest_all, plan=_APPEND_EXIT, want=CRASH_EXIT_CODE,
        oracle=_replays_clean,
    ),
    Scenario(
        "stream-chaos", "SIGKILL after the journal append",
        prepare=_ingest_all, want=KILLED, oracle=_replays_clean,
        plan=chaos_plan("stream.append", VICTIM_BATCH, CrashFault(mode=CRASH_SIGKILL)),
    ),
    Scenario(
        "stream-chaos", "hang after the journal append, SIGKILLed from outside",
        prepare=_ingest_all, kill_when=_victim_journalled, want=KILLED,
        oracle=_replays_clean,
        plan=chaos_plan("stream.append", VICTIM_BATCH, HangFault(seconds=10 * TIMEOUT)),
    ),
    Scenario(
        "stream-chaos", "torn final journal record",
        prepare=_ingest_all, inspect=_tear_tail, oracle=_replays_clean,
    ),
    Scenario(
        "stream-chaos", "os._exit after a compaction",
        prepare=_compacted_half, plan=_APPEND_EXIT, want=CRASH_EXIT_CODE,
        oracle=_replays_compacted,
    ),
    Scenario(
        "data-verify", "SIGKILL between shard writes",
        prepare=_materialize, want=KILLED, inspect=_no_partial_entry,
        oracle=_rematerialized,
        plan=chaos_plan("store.shard", str(VICTIM_SHARD), CrashFault(mode=CRASH_SIGKILL)),
    ),
    Drill(
        "serve-chaos", "SIGKILL mid-ingest after the journal append",
        functools.partial(gateway_crash, mode=CRASH_SIGKILL),
    ),
    Drill(
        "serve-chaos", "os._exit mid-ingest after the journal append",
        functools.partial(gateway_crash, mode=CRASH_EXIT),
    ),
    Drill("serve-chaos", "SIGKILL mid-fetch", fetch_crash),
    Drill("serve-chaos", "SIGKILL of a --remedy gateway", remedy_crash),
    Drill("serve-chaos", "SIGTERM drain", drain_gateway),
)

#: The CI stages the drills belong to, in table order.
STAGES = tuple(dict.fromkeys(drill.stage for drill in DRILLS))


def run_stage(stage: str) -> None:
    """Run every drill of ``stage`` in table order; raise on the first failure."""
    with Lab(prefix=f"repro-{stage}-") as lab:
        for drill in DRILLS:
            if drill.stage != stage:
                continue
            try:
                drill.run(lab)
            except InternalError as exc:
                raise InternalError(f"{stage}: {drill.name}: {exc}") from exc
            print(f"{stage} ok: {drill.name}", flush=True)


def main(argv: list[str] | None = None) -> int:
    """Entry point of the drill stages of ``scripts/ci.py`` and the Makefile."""
    parser = argparse.ArgumentParser(description="run the chaos drills of one CI stage")
    parser.add_argument("--stage", required=True, choices=STAGES)
    run_stage(parser.parse_args(argv).stage)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
