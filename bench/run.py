"""Benchmark of the audit stack: five workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py                               # all workloads
    python3 bench/run.py --workload stream-mixed --seed 3
    python3 bench/run.py --workload gateway --trace    # per-layer metrics

Each workload runs in its own child process, measures for ``--seconds``,
checks its outputs against a reference path, and prints its metrics by
name with unit and sample count.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` the metrics are the end-to-end ones; with it, the per-layer
ones.  The exit status is non-zero when any check or absolute floor fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("batch-remedy", "audit-sharded", "stream-mixed", "stream-deep", "gateway")
#: Measured seconds per run (``run_seconds`` in BENCHMARK.json).
SECONDS = 8
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170

#: Absolute floors: never re-baselined, checked on every run.
#: ``(workload, value name, ceiling)``; ``error_rate`` = 0 holds everywhere.
FLOORS = (
    ("audit-sharded", "peak_rss_mb", 512.0),
    ("stream-mixed", "late_over_early_p95", 3.0),
)


def _workload_fn(name: str):
    from bench import streams, workloads

    return {
        "batch-remedy": workloads.batch_remedy,
        "audit-sharded": workloads.audit_sharded,
        "stream-mixed": streams.stream_mixed,
        "stream-deep": streams.stream_deep,
        "gateway": streams.gateway,
    }[name]


def floor_failures(name: str, result: dict) -> list[str]:
    """Absolute floors ``result`` breaks, as messages."""
    failures = []
    if result["failed"]:
        failures.append(f"error_rate {result['failed']}/{result['attempted']} > 0")
    for workload, value_name, ceiling in FLOORS:
        value = result["floors"].get(value_name)
        if workload == name and value is not None and value > ceiling:
            failures.append(f"{value_name} {value:.3f} > {ceiling:g}")
    return failures


def _child(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload in this process and print its result as JSON."""
    result = _workload_fn(name)(seed, seconds, trace)
    print(json.dumps(result))


def _run_child(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    from bench.common import child_env

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    # Its own process group, so a timeout also stops the processes the
    # workload started (the gateway server, the reference check).
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for path in (ROOT / ".bench_work").glob(f"*-{proc.pid}"):
            shutil.rmtree(path, ignore_errors=True)
        print(f"{name}: timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{name}: child exited {proc.returncode}\n{err[-4000:]}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def _report(name: str, result: dict, trace: bool) -> None:
    """Human-readable lines for one workload."""
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed")
    if trace:
        print(f"   per-layer metrics ({result['ops']}):")
        for metric, entry in result["metrics"].items():
            if entry["value"]:
                print(f"   {metric:36s} {entry['value']:14.4f} {entry['unit']}")
    else:
        notes = {row[0]: row for row in result["detail"]}
        for metric, entry in result["metrics"].items():
            note = notes.get(metric)
            extra = f"  [{note[1]}: {note[2]}, n={note[3]}]" if note else ""
            print(f"   {metric:16s} {entry['value']:14.4f} {entry['unit']}{extra}")
    for check_name, ok, detail in result["checks"]:
        print(f"   check {'ok  ' if ok else 'FAIL'} {check_name} {detail}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", nargs="+", action="extend", choices=WORKLOADS,
        help="workloads to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.child:
        _child(args.child, args.seed, args.seconds, bool(args.trace))
        return 0

    names = args.workload or list(WORKLOADS)
    correct = True
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        result = _run_child(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        _report(name, result, bool(args.trace))
        problems = floor_failures(name, result)
        for problem in problems:
            print(f"   floor FAIL {problem}")
        correct &= all(ok for _, ok, _ in result["checks"]) and not problems
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
