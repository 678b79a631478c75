"""Offline CI driver: staged gates with per-stage timing and a status table.

Runs the repository's quality gates in order, fail-fast::

    lint               tree hygiene (no tracked bytecode/cache junk), then
                       static analysis (per-file R001-R008, R015, R016 +
                       whole-program R009-R014) against the baseline,
                       through the incremental cache (missing/corrupt
                       cache = cold run); its wall time lands in the status
                       table like every stage's
    tier1              fast pytest suite (slow-marked modules skipped)
    experiments-smoke  the chaos drills of this stage: a robustness sweep
                       with a transient fault in every cell
    chaos              strict lint of the resilience/obs subsystems, then
                       the chaos drills of this stage: the process-backend
                       sweep under worker crashes/hangs, and a driver kill
    stream-chaos       the chaos drills of this stage (the streaming
                       auditor's crash/hang/torn-tail/compaction drills:
                       every one must recover to a byte-identical replay
                       with no orphaned segments); then the hypothesis
                       property suite pinning every batch's re-score to a
                       scalar oracle and the end state to a from-scratch
                       audit
    data-verify        the sharded dataset plane's gates: strict lint of
                       the store package, the chaos drill of this stage
                       (a SIGKILLed materialize leaves no partial entry),
                       the hypothesis property suite proving sharded ==
                       in-memory byte for byte, then the engine and remedy
                       oracles that pin IBS output over the row store and
                       pin remedy output to the per-region reference loop
                       (slow-marked, so tier1 skips them)
    paper-figures      the paper-figure suite (benchmarks/ without the
                       engine timing comparison): regenerates Figs. 3-9,
                       Tables II-III and the ablations at reduced size and
                       checks their shape claims, which a remedy change
                       can move
    serve-chaos        the audit gateway's process-level drills: strict
                       lint of the serve package, then the chaos drills of
                       this stage (crash mid-ingest and mid-fetch, a remedy
                       crash, and a SIGTERM drain) — every drill must
                       converge to a byte-identical replay with zero
                       acked-but-lost batches
    examples           every script in examples/ end to end
    bench-regression   the benchmark harness's own tests (bench/tests:
                       every traced layer hook must still resolve in src/),
                       then fresh IBS + pool + stream + data + serve
                       benchmarks vs the committed baselines

A strict lint runs ``STRICT_RULES`` over one subsystem slice with no
baseline (inline suppressions only).  Every chaos drill lives in one table
in :mod:`repro.resilience.chaos`, tagged with the stage that runs it
(``drill_stage``); see "Chaos drills" in ``docs/resilience.md``.

Each stage runs as a subprocess with ``PYTHONPATH=src`` and is timed through
a :mod:`repro.obs` span; the run ends with a per-stage status table and a
non-zero exit as soon as any stage fails (later stages are reported as
``skipped``).  Everything is offline — no network, no package installs.

Usage::

    make ci                 # or: PYTHONPATH=src python scripts/ci.py
    python scripts/ci.py --stages lint,tier1
    python scripts/ci.py --trace ci-trace.jsonl
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.reporting import format_table  # noqa: E402
from repro.obs import Tracer, tracing  # noqa: E402

PYTHON = sys.executable

#: Every rule but R014, whose dead-export check needs the consumers that
#: live outside a slice.  The Makefile's ``STRICT_RULES`` is the same list.
STRICT_RULES = (
    "R001,R002,R003,R004,R005,R006,R007,R008,R009,R010,R011,R012,R013,R015,R016"
)


def strict_lint(*slices: str) -> list[str]:
    """The no-baseline analyzer run over one subsystem slice."""
    return [PYTHON, "-m", "repro.analysis", *slices, "--rules", STRICT_RULES]


def drill_stage(stage: str) -> list[str]:
    """The chaos drills tagged with ``stage``."""
    return [PYTHON, "-m", "repro.resilience.chaos", "--stage", stage]


def stage_commands(
    bench_json: str,
    pool_json: str,
    stream_json: str,
    data_json: str,
    serve_json: str,
) -> list[tuple[str, list[list[str]]]]:
    """The ordered CI stages; each is (name, list of argv to run in order)."""
    return [
        (
            "lint",
            [
                [PYTHON, "scripts/check_tree.py"],
                [PYTHON, "-m", "repro.analysis", "src/repro",
                 "--baseline", "analysis-baseline.json",
                 "--cache", ".analysis-cache.json", "--stats"],
            ],
        ),
        (
            "tier1",
            [[PYTHON, "-m", "pytest", "-x", "-q", "-m", "not slow", "tests/"]],
        ),
        (
            "experiments-smoke",
            [drill_stage("experiments-smoke")],
        ),
        (
            "chaos",
            [
                # Strict lint first: new resilience/obs code must be clean
                # outright.
                strict_lint("src/repro/resilience", "src/repro/obs"),
                drill_stage("chaos"),
            ],
        ),
        (
            "stream-chaos",
            [
                drill_stage("stream-chaos"),
                # The equivalence proof: every batch's re-score equals the
                # scalar per-region oracle, and the streamed end state a
                # from-scratch identify_ibs, across random schemas, delta
                # sequences, distance thresholds and hysteresis.
                [PYTHON, "-m", "pytest", "-q", "tests/test_properties_stream.py"],
            ],
        ),
        (
            "data-verify",
            [
                # Strict lint first: the store package must be clean
                # outright.
                strict_lint("src/repro/data/store"),
                # A SIGKILLed materialize must leave no partial entry (bit
                # flips and lease pinning are tier-1 tests in test_store).
                drill_stage("data-verify"),
                # The equivalence proof: sharded region_counts and full
                # IBS reports byte-identical to the in-memory Dataset
                # across random schemas, shard sizes, and edit sequences;
                # then the engine and remedy oracles over the same row
                # store (slow-marked, so no other stage runs them).
                [PYTHON, "-m", "pytest", "-q", "tests/test_properties_store.py",
                 "tests/test_properties_engines.py",
                 "tests/test_properties_remedy.py"],
            ],
        ),
        (
            "paper-figures",
            [
                # Timing-free: the engine comparison is a perf gate and
                # runs in bench-regression.
                [PYTHON, "-m", "pytest", "benchmarks", "--benchmark-disable",
                 "--ignore=benchmarks/test_engine_comparison.py", "-q"],
            ],
        ),
        (
            "serve-chaos",
            [
                # Strict lint first: the serving front must be clean
                # outright.
                strict_lint("src/repro/serve"),
                # Crashes mid-ingest and mid-fetch, a remedy crash, and a
                # SIGTERM drain — restart + client retry must converge to
                # a byte-identical replay with zero acked-but-lost batches
                # and no .tmp-* orphans.
                drill_stage("serve-chaos"),
            ],
        ),
        (
            "examples",
            [[PYTHON, str(path)] for path in sorted(
                (REPO_ROOT / "examples").glob("*.py")
            )],
        ),
        (
            "bench-regression",
            [
                # The benchmark harness wraps program entry points by name
                # (bench/layers.py); a rename under src/ must fail here,
                # not in the next traced run.
                [PYTHON, "-m", "pytest", "bench/tests", "-q"],
                [PYTHON, "-m", "pytest", "benchmarks/test_engine_comparison.py",
                 "--benchmark-only", f"--benchmark-json={bench_json}", "-s"],
                [PYTHON, "scripts/check_bench.py", bench_json],
                [PYTHON, "scripts/bench_pool.py", "--output", pool_json],
                [PYTHON, "scripts/check_bench.py", pool_json, "--kind", "pool"],
                # A reduced-row stream run keeps the stage's wall time in
                # check; the ratio metrics it gates are row-count invariant
                # (that invariance is itself the late/early check).
                [PYTHON, "scripts/bench_stream.py", "--rows", "100000",
                 "--output", stream_json],
                [PYTHON, "scripts/check_bench.py", stream_json,
                 "--kind", "stream"],
                # Reduced-rows for the same reason; the RSS ceiling the
                # gate enforces is absolute, so the smaller scale still
                # proves the bounded-resident-set property.
                [PYTHON, "scripts/bench_data.py", "--rows", "1000000",
                 "--output", data_json],
                [PYTHON, "scripts/check_bench.py", data_json,
                 "--kind", "data"],
                # Reduced-rows again; the overload phase (the shed-latency
                # metric) and the overhead-ratio floor are row-count
                # invariant.
                [PYTHON, "scripts/bench_serve.py", "--rows", "20000",
                 "--output", serve_json],
                [PYTHON, "scripts/check_bench.py", serve_json,
                 "--kind", "serve"],
            ],
        ),
    ]


def run_stage(name: str, commands: list[list[str]], env: dict[str, str]) -> bool:
    """Run one stage's commands in order; False on the first failure."""
    for argv in commands:
        print(f"[ci:{name}] $ {' '.join(argv)}", flush=True)
        proc = subprocess.run(argv, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            print(f"[ci:{name}] FAILED (exit {proc.returncode})", flush=True)
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    """Run the staged gates; exit 0 only when every requested stage passes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--stages", default=None,
        help="comma-separated subset of stages to run (default: all)",
    )
    parser.add_argument(
        "--trace", default=None,
        help="also write the per-stage span trace to this JSONL path",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    # The fresh benchmark JSONs go to temp files so the committed
    # BENCH_*.json baselines are never clobbered by CI.
    tmpdir = tempfile.mkdtemp(prefix="repro-ci-")
    bench_json = os.path.join(tmpdir, "bench.json")
    pool_json = os.path.join(tmpdir, "pool.json")
    stream_json = os.path.join(tmpdir, "stream.json")
    data_json = os.path.join(tmpdir, "data.json")
    serve_json = os.path.join(tmpdir, "serve.json")
    stages = stage_commands(
        bench_json, pool_json, stream_json, data_json, serve_json
    )
    if args.stages:
        wanted = [s.strip() for s in args.stages.split(",") if s.strip()]
        known = {name for name, _ in stages}
        unknown = [s for s in wanted if s not in known]
        if unknown:
            print(f"error: unknown stage(s) {unknown}; known: {sorted(known)}",
                  file=sys.stderr)
            return 2
        stages = [(name, cmds) for name, cmds in stages if name in wanted]

    tracer = Tracer()
    rows: list[tuple[str, str, str]] = []
    failed = False
    with tracing(tracer):
        for name, commands in stages:
            if failed:
                rows.append((name, "skipped", "-"))
                continue
            with tracer.span(f"ci.{name}") as stage_span:
                ok = run_stage(name, commands, env)
                stage_span.annotate(status="ok" if ok else "failed")
            wall = tracer.spans[-1].wall
            rows.append((name, "ok" if ok else "FAILED", f"{wall:.1f}"))
            if not ok:
                failed = True

    print()
    print(format_table(("stage", "status", "seconds"), rows, title="CI"))
    if args.trace:
        tracer.write(Path(args.trace))
        print(f"trace written to {args.trace}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
