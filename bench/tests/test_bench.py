"""Tests of the benchmark harness, at sizes far below the benchmark's own.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import layers, run, streams, workloads  # noqa: E402
from bench.common import MIX_NUMPY, OpTimer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")

#: Each workload at a tiny size: ``fn(seed, trace)``.
TINY = {
    "batch-remedy": lambda seed, trace: workloads.batch_remedy(
        seed, 0.2, trace, rows=3000, audits_per_cycle=2
    ),
    "audit-sharded": lambda seed, trace: workloads.audit_sharded(
        seed, 0.2, trace, rows=40_000, shard_rows=10_000
    ),
    "stream-mixed": lambda seed, trace: streams.stream_mixed(
        seed, 0.2, trace, preload=(3, 200), batch_size=100
    ),
    "stream-deep": lambda seed, trace: streams.stream_deep(
        seed, 0.2, trace, preload=(3, 200), batch_size=50
    ),
    "gateway": lambda seed, trace: streams.gateway(seed, 0.5, trace),
}


@pytest.fixture(scope="module")
def results():
    """``{workload: (seed 1 untraced, seed 1 traced, seed 2 untraced)}``."""
    return {
        name: (fn(1, False), fn(1, True), fn(2, False)) for name, fn in TINY.items()
    }


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["run_seconds"] == run.SECONDS
    assert SPEC["paths"] == ["bench"]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names), names
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted(results, name):
    untraced, traced, _ = results[name]
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in (untraced, traced):
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], float)
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_outputs_are_correct_and_seeded(results, name):
    untraced, traced, other_seed = results[name]
    for result in results[name]:
        assert all(ok for _, ok, _ in result["checks"]), result["checks"]
        assert result["failed"] == 0 and result["attempted"] >= 1
    # Same seed, traced or not: the same outputs.
    assert traced["output_digest"] == untraced["output_digest"]
    assert traced["input_digest"] == untraced["input_digest"]
    # Another seed: other inputs.
    assert other_seed["input_digest"] != untraced["input_digest"]


def test_floors_flag_errors_and_ceilings():
    ok = {"attempted": 5, "failed": 0, "floors": {"peak_rss_mb": 100.0}}
    assert run.floor_failures("audit-sharded", ok) == []
    fat = dict(ok, floors={"peak_rss_mb": 600.0})
    assert run.floor_failures("audit-sharded", fat) == ["peak_rss_mb 600.000 > 512"]
    assert run.floor_failures("stream-mixed", fat) == []
    assert run.floor_failures("gateway", dict(ok, failed=1)) == ["error_rate 1/5 > 0"]


def test_span_on_another_thread_is_recorded():
    recorder = layers.Recorder()
    inner = recorder.wrap(lambda: sum(range(1000)), "inner")
    outer = recorder.wrap(lambda key: inner() + inner(), "outer", key=lambda args: args[0])
    thread = threading.Thread(target=outer, args=("batch-7",))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    export = recorder.export()
    assert export["spans"]["outer"][0] == 1
    assert export["spans"]["inner"][0] == 2
    assert set(export["keys"]) == {"batch-7"}
    # The outer span's self time excludes its two children.
    calls, incl, self_s = export["spans"]["outer"]
    assert self_s == pytest.approx(incl - export["spans"]["inner"][1], abs=1e-9)


def test_concurrent_spans_lose_no_update():
    recorder = layers.Recorder()
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: inner(), "outer")
    n_threads, n_calls = 8, 2000

    def work():
        for _ in range(n_calls):
            outer()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    spans = recorder.export()["spans"]
    assert spans["outer"][0] == spans["inner"][0] == n_threads * n_calls
    assert spans["outer"][2] <= spans["outer"][1]


def test_self_times_bounded_by_traced_wall_and_wrappers_removed():
    from repro.core import ibs
    from repro.core.hierarchy import Hierarchy
    from repro.data.synth.adult import load_adult

    originals = (Hierarchy.__init__, ibs.identify_ibs, os.fsync)
    data = load_adult(n_rows=2000, seed=3)
    timer = OpTimer(trace=True, mix=MIX_NUMPY)
    for _ in range(6):
        timer.run(lambda: ibs.identify_ibs(data, 0.1, method=ibs.METHOD_VECTORIZED))
    export = timer.recorder.export()
    assert len(timer.traced) == 3
    assert all(self_s >= 0 for _, _, self_s in export["spans"].values())
    assert layers.self_seconds(export) <= sum(timer.traced)
    assert timer.coverage(export) >= 0.9
    assert (Hierarchy.__init__, ibs.identify_ibs, os.fsync) == originals
    assert "__init__" in vars(Hierarchy)


def test_missing_source_exits_nonzero_without_result(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench_copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
