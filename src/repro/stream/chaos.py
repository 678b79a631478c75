"""Chaos smoke for the streaming auditor: crash-safe ingestion, proven.

``make stream-chaos`` (and the CI ``stream-chaos`` stage) batters the
stream write path and asserts the recovery contract: however the driver
dies mid-ingestion, a restart must replay the journal to **byte-identical
audited state** — same watermark, same region reports, same alarm set,
same digest — as a run that was never interrupted.

The kill sites are chosen deterministically via the ``REPRO_STREAM_CHAOS``
environment variable: a JSON plan ``{"batch": id, "stage": stage,
"action": descriptor}`` arms a :class:`~repro.resilience.faults.CrashFault`
/ :class:`~repro.resilience.faults.HangFault` worker-action descriptor at
one of the write path's two crash windows (``post-append``: journalled but
not applied; ``pre-apply``: about to fold into the in-memory state).  The
scenarios:

* **crash-exit** — the driver ``os._exit``\\ s right after the fsynced
  append; the restart must dedup the journalled batch, not double-apply;
* **crash-sigkill** — same window, death by signal (no Python cleanup);
* **hang + external SIGKILL** — the driver wedges between append and
  apply; the harness SIGKILLs it from outside once the armed batch is on
  disk (the "operator kills a stuck ingester" drill);
* **torn tail** — the final journal record is truncated mid-line on disk;
  recovery must clip exactly the torn record and re-ingest it;
* **compaction** — a generation flip happens mid-stream, then the driver
  is killed; replay across the rebase must still match, and no orphan
  segments may survive recovery.

Run directly::

    PYTHONPATH=src python -m repro.stream.chaos
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.data.io import atomic_write_json
from repro.errors import InternalError
from repro.resilience.faults import (
    CRASH_EXIT,
    CRASH_EXIT_CODE,
    CRASH_SIGKILL,
    CrashFault,
    HangFault,
    execute_chaos_action,
)
from repro.stream.journal import _SEGMENT_RE, CURRENT_FILE

#: Environment variable carrying the armed chaos plan for one subprocess.
CHAOS_ENV = "REPRO_STREAM_CHAOS"

N_BATCHES = 40
DELTAS_PER_BATCH = 50
#: Batch the chaos plans arm; mid-stream so both sides are non-trivial.
VICTIM_BATCH = "b0020"
CHAOS_TIMEOUT = 120.0


def chaos_hook_from_env() -> Callable[[str, str], None] | None:
    """The service chaos hook armed by ``REPRO_STREAM_CHAOS``, if any.

    The ingest CLI consults this so a *subprocess* can be made to die at
    an exact batch and write-path stage without patching any code.
    """
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return None
    try:
        plan = json.loads(spec)
        batch, stage, action = plan["batch"], plan["stage"], plan["action"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InternalError(f"malformed {CHAOS_ENV} plan: {exc}") from exc

    def hook(batch_id: str, at_stage: str) -> None:
        if batch_id == batch and at_stage == stage:
            execute_chaos_action(action)

    return hook


# -- workload generation ----------------------------------------------------------

def write_workload(directory: Path, seed: int = 7) -> tuple[Path, Path]:
    """Write the schema + batches files the scenarios share.

    The workload is seeded and id-stable: mostly inserts over three
    protected attributes plus a numeric feature, with deletes and relabels
    aimed at rows known to be alive, so every batch is valid and the only
    nondeterminism left for the byte-compare to catch is the harness's.
    """
    schema_path = directory / "schema.json"
    atomic_write_json(
        schema_path,
        {
            "columns": [
                {"name": "age", "kind": "categorical", "domain": ["<30", ">=30"]},
                {
                    "name": "race",
                    "kind": "categorical",
                    "domain": ["a", "b", "c"],
                },
                {"name": "sex", "kind": "categorical", "domain": ["f", "m"]},
                {"name": "score", "kind": "numeric"},
            ],
            "protected": ["age", "race", "sex"],
        },
    )
    rng = np.random.default_rng(seed)
    batches_path = directory / "batches.jsonl"
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
                row = alive.pop(int(rng.integers(len(alive))))
                deltas.append(["d", row])
            else:
                row = alive[int(rng.integers(len(alive)))]
                deltas.append(["r", row, int(rng.integers(2))])
        lines.append(json.dumps({"id": f"b{b:04d}", "deltas": deltas}))
    batches_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return schema_path, batches_path


# -- subprocess drivers -----------------------------------------------------------

def _stream_cmd(*tail: str) -> list[str]:
    return [sys.executable, "-m", "repro", "stream", *tail]


def _run(
    cmd: list[str], env_extra: dict | None = None, check: bool = True
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop(CHAOS_ENV, None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        cmd, capture_output=True, env=env, timeout=CHAOS_TIMEOUT
    )
    if check and proc.returncode != 0:
        raise InternalError(
            f"command {cmd[3:]} failed (exit {proc.returncode}): "
            f"{proc.stderr.decode(errors='replace')}"
        )
    return proc


def _init(stream_dir: Path, schema: Path, segment_bytes: int = 8192) -> None:
    _run(
        _stream_cmd(
            "init", str(stream_dir), "--schema", str(schema),
            "--tau-c", "0.1", "--k", "10",
            "--segment-bytes", str(segment_bytes),
        )
    )


def _replay_stdout(stream_dir: Path) -> bytes:
    return _run(_stream_cmd("replay", str(stream_dir))).stdout


def _assert_no_orphans(stream_dir: Path, context: str) -> None:
    """Every segment on disk must belong to the CURRENT generation."""
    generation = json.loads((stream_dir / CURRENT_FILE).read_text())["generation"]
    stray = [
        p.name
        for p in stream_dir.iterdir()
        if (m := _SEGMENT_RE.match(p.name)) and int(m.group(1)) != generation
    ]
    if stray:
        raise InternalError(
            f"orphan segments survived recovery after {context}: {stray}"
        )


def _assert_recovered(
    stream_dir: Path, clean_stdout: bytes, context: str
) -> None:
    resumed = _replay_stdout(stream_dir)
    if resumed != clean_stdout:
        raise InternalError(
            f"replay after {context} diverges from the uninterrupted run"
        )
    _assert_no_orphans(stream_dir, context)


def _chaos_env(stage: str, action: dict) -> dict:
    return {
        CHAOS_ENV: json.dumps(
            {"batch": VICTIM_BATCH, "stage": stage, "action": action}
        )
    }


# -- scenarios --------------------------------------------------------------------

def run_clean(tmp: Path, schema: Path, batches: Path) -> bytes:
    """The oracle run: uninterrupted ingest, replay output captured."""
    stream_dir = tmp / "clean"
    _init(stream_dir, schema)
    _run(_stream_cmd("ingest", str(stream_dir), str(batches)))
    return _replay_stdout(stream_dir)


def run_crash(
    tmp: Path, schema: Path, batches: Path, clean: bytes, mode: str, stage: str
) -> None:
    """Kill the ingester via an armed CrashFault; restart must converge."""
    stream_dir = tmp / f"crash-{mode}-{stage}"
    _init(stream_dir, schema)
    action = CrashFault(times=1, mode=mode).worker_action(("stream",), 1)
    proc = _run(
        _stream_cmd("ingest", str(stream_dir), str(batches)),
        env_extra=_chaos_env(stage, action),
        check=False,
    )
    want = CRASH_EXIT_CODE if mode == CRASH_EXIT else -signal.SIGKILL
    if proc.returncode != want:
        raise InternalError(
            f"armed {mode} crash at {stage} exited {proc.returncode}, "
            f"expected {want}"
        )
    _run(_stream_cmd("ingest", str(stream_dir), str(batches)))
    _assert_recovered(stream_dir, clean, f"{mode} crash at {stage}")


def _journal_holds_batch(stream_dir: Path, batch_id: str) -> bool:
    needle = f'"id":"{batch_id}"'.encode()
    for path in stream_dir.iterdir():
        if _SEGMENT_RE.match(path.name) and needle in path.read_bytes():
            return True
    return False


def run_hang_kill(tmp: Path, schema: Path, batches: Path, clean: bytes) -> None:
    """Wedge the driver between append and apply, SIGKILL it from outside."""
    stream_dir = tmp / "hang-kill"
    _init(stream_dir, schema)
    action = HangFault(seconds=10 * CHAOS_TIMEOUT, times=1).worker_action(
        ("stream",), 1
    )
    env = dict(os.environ)
    env.update(_chaos_env("pre-apply", action))
    victim = subprocess.Popen(
        _stream_cmd("ingest", str(stream_dir), str(batches)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    deadline = time.monotonic() + CHAOS_TIMEOUT
    try:
        while not _journal_holds_batch(stream_dir, VICTIM_BATCH):
            if victim.poll() is not None:
                raise InternalError(
                    "hung ingester exited before the armed batch was "
                    f"journalled (exit {victim.returncode})"
                )
            if time.monotonic() > deadline:
                raise InternalError(
                    "armed batch never reached the journal; the hang window "
                    "was not entered"
                )
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
    finally:
        if victim.poll() is None and time.monotonic() > deadline:
            victim.kill()
        victim.wait(timeout=30.0)
    _run(_stream_cmd("ingest", str(stream_dir), str(batches)))
    _assert_recovered(stream_dir, clean, "hang + external SIGKILL")


def run_torn_tail(tmp: Path, schema: Path, batches: Path, clean: bytes) -> None:
    """Chop the last journal record mid-line; recovery must clip and re-ingest."""
    stream_dir = tmp / "torn"
    _init(stream_dir, schema)
    _run(_stream_cmd("ingest", str(stream_dir), str(batches)))
    segments = sorted(
        p for p in stream_dir.iterdir() if _SEGMENT_RE.match(p.name)
    )
    last = segments[-1]
    data = last.read_bytes()
    cut = data.rstrip(b"\n").rfind(b"\n")
    # Keep a partial final line: a classic torn append.  (A single-record
    # final segment degenerates to a torn-at-zero, equally valid.)
    keep = cut + 1 + (len(data) - cut) // 2 if cut >= 0 else len(data) // 2
    last.write_bytes(data[:keep])
    _run(_stream_cmd("ingest", str(stream_dir), str(batches)))
    _assert_recovered(stream_dir, clean, "torn final record")


def run_compaction_crash(
    tmp: Path, schema: Path, batches: Path, seed: int
) -> None:
    """Compact mid-stream, then crash; replay across the rebase must match.

    Both the oracle and the victim compact after the same batch prefix, so
    their journals rebase at the same seq and the byte-compare stays exact.
    """
    all_lines = batches.read_text(encoding="utf-8").splitlines()
    first = tmp / "first-half.jsonl"
    second = tmp / "second-half.jsonl"
    first.write_text("\n".join(all_lines[: N_BATCHES // 2]) + "\n")
    second.write_text("\n".join(all_lines[N_BATCHES // 2:]) + "\n")

    oracle_dir = tmp / "compact-clean"
    _init(oracle_dir, schema)
    _run(_stream_cmd("ingest", str(oracle_dir), str(first)))
    _run(_stream_cmd("compact", str(oracle_dir)))
    _run(_stream_cmd("ingest", str(oracle_dir), str(second)))
    oracle = _replay_stdout(oracle_dir)

    victim_dir = tmp / "compact-crash"
    _init(victim_dir, schema)
    _run(_stream_cmd("ingest", str(victim_dir), str(first)))
    _run(_stream_cmd("compact", str(victim_dir)))
    action = CrashFault(times=1, mode=CRASH_EXIT).worker_action(("stream",), 1)
    proc = _run(
        _stream_cmd("ingest", str(victim_dir), str(second)),
        env_extra=_chaos_env("post-append", action),
        check=False,
    )
    if proc.returncode != CRASH_EXIT_CODE:
        raise InternalError(
            f"armed crash after compaction exited {proc.returncode}, "
            f"expected {CRASH_EXIT_CODE}"
        )
    _run(_stream_cmd("ingest", str(victim_dir), str(second)))
    _assert_recovered(victim_dir, oracle, "crash after compaction")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``make stream-chaos``."""
    parser = argparse.ArgumentParser(
        description="streaming-auditor chaos smoke (crashes, kills, torn tails)"
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-stream-chaos-") as tmpname:
        tmp = Path(tmpname)
        schema, batches = write_workload(tmp, seed=args.seed)
        clean = run_clean(tmp, schema, batches)
        if b"digest" not in clean:
            raise InternalError("clean replay printed no state digest")

        run_crash(tmp, schema, batches, clean, CRASH_EXIT, "post-append")
        run_crash(tmp, schema, batches, clean, CRASH_SIGKILL, "post-append")
        run_crash(tmp, schema, batches, clean, CRASH_EXIT, "pre-apply")
        print(
            "stream-chaos ok: exit/SIGKILL crashes at post-append and "
            "pre-apply recovered to the clean replay byte for byte"
        )
        run_hang_kill(tmp, schema, batches, clean)
        print(
            "stream-chaos ok: hung driver SIGKILLed between append and "
            "apply; restart converged with no orphan segments"
        )
        run_torn_tail(tmp, schema, batches, clean)
        print(
            "stream-chaos ok: torn final record clipped on recovery and "
            "re-ingested; replay matches the clean run"
        )
        run_compaction_crash(tmp, schema, batches, seed=args.seed)
        print(
            "stream-chaos ok: crash after a generation flip replayed across "
            "the rebase to the oracle's bytes; old generation fully swept"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
