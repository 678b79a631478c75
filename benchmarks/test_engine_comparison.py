"""Engine comparison — naive vs. optimized vs. vectorized identification.

Two sweeps, each recording raw seconds plus speedup ratios in benchmark
``extra_info``:

* **width** — all three engines on the Adult-like data at 4, 6, and 8
  protected attributes (the Fig. 9a axis), keyed by ``n_attrs``;
* **depth** — vectorized vs optimized on binary synthetic attributes at
  lattice depth 10–12 (``2^depth`` leaf cells, ``3^depth`` lattice
  regions), keyed by ``depth``, with the report lists asserted identical
  at every depth.

``make bench-ibs`` runs this file with ``--benchmark-json=BENCH_ibs.json``
so later PRs can ratchet against the recorded trajectory; the acceptance
floors asserted here are vectorized ≥ 5× optimized at 8 attributes
(measured ~15×) and > 1× at every depth (measured ~5×; see
``docs/performance.md``).
"""

import os
import time

import pytest

from conftest import emit

from repro.core import (
    METHOD_NAIVE,
    METHOD_OPTIMIZED,
    METHOD_VECTORIZED,
    identify_ibs,
)
from repro.data.synth.adult import SCALABILITY_PROTECTED, load_adult
from repro.data.synth.generic import generate, make_scalability_config
from repro.obs import Tracer, tracing

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
N_ROWS = 45_222 if FULL else 12_000
TAU_C = 0.5
K = 30

DEPTH_GRID = (10, 11, 12) if FULL else (10, 12)
DEPTH_ROWS = 4000


@pytest.fixture(scope="module")
def adult8():
    return load_adult(N_ROWS, seed=5).with_protected(SCALABILITY_PROTECTED)


def _best_seconds(fn, repeats=3):
    """Best-of-N wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_ratio_seconds(fn_a, fn_b, repeats=9, inner=4):
    """Per-call seconds for two workloads plus their median b/a ratio.

    Timing the two in separate blocks lets a mid-run slowdown of the
    (shared, 1-CPU) box land entirely on one side and fabricate a large
    ratio between them, so each round runs the pair back-to-back
    (alternating which goes first) and takes the ratio *within* the
    round, where drift divides out.  Each timed sample covers ``inner``
    consecutive calls so a single scheduler burst (fixed tens of ms) is
    amortized instead of inflating one ~50 ms run by double digits, and
    the median across rounds shrugs off whichever bursts remain.
    """
    times_a: list[float] = []
    times_b: list[float] = []
    for i in range(repeats):
        order = ((fn_a, times_a), (fn_b, times_b))
        if i % 2:
            order = tuple(reversed(order))
        for fn, out in order:
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            out.append((time.perf_counter() - start) / inner)
    ratios = sorted(
        b / max(a, 1e-9) for a, b in zip(times_a, times_b)
    )
    median = ratios[len(ratios) // 2]
    return min(times_a), min(times_b), median


@pytest.mark.parametrize("n_attrs", (4, 6, 8))
def test_engine_comparison(benchmark, adult8, n_attrs):
    attrs = SCALABILITY_PROTECTED[:n_attrs]

    def run(method):
        return identify_ibs(adult8, TAU_C, k=K, method=method, attrs=attrs)

    # The benchmarked subject is the vectorized engine; the others are
    # timed best-of-N below so one JSON record carries the whole comparison.
    reports = benchmark(lambda: run(METHOD_VECTORIZED))
    assert reports == run(METHOD_OPTIMIZED), "engines disagree; timings void"

    # The optimized/vectorized ratio is gated (25% tolerance vs baseline,
    # absolute >= 5x floor at 8 attributes), so it gets the same paired
    # treatment as the tracing ratio below; single runs are long enough
    # that per-sample bursts stay proportionally small.
    t_vec_o, t_opt, speedup_vs_opt = _paired_ratio_seconds(
        lambda: run(METHOD_VECTORIZED), lambda: run(METHOD_OPTIMIZED),
        repeats=7, inner=1,
    )
    # The naive engine recounts every neighbour from raw data (§III-A);
    # one repetition is plenty to place it on the chart.
    t_naive = _best_seconds(lambda: run(METHOD_NAIVE), repeats=1)

    # Same workload with a live tracer collecting spans and counters — the
    # observability acceptance floor is <10% overhead on the vectorized
    # engine at 8 attributes.  The plain/traced pair is interleaved: at
    # ~50 ms per run the gate would otherwise measure box-speed drift,
    # not tracing.
    def run_traced():
        with tracing(Tracer()):
            run(METHOD_VECTORIZED)

    t_vec, t_traced, traced_over_vec = _paired_ratio_seconds(
        lambda: run(METHOD_VECTORIZED), run_traced
    )
    trace_overhead = traced_over_vec - 1.0
    t_vec = min(t_vec, t_vec_o)

    speedup_vs_naive = t_naive / max(t_vec, 1e-9)
    benchmark.extra_info.update(
        {
            "n_attrs": n_attrs,
            "n_rows": N_ROWS,
            "regions_found": len(reports),
            "naive_seconds": round(t_naive, 4),
            "optimized_seconds": round(t_opt, 4),
            "vectorized_seconds": round(t_vec, 4),
            "traced_seconds": round(t_traced, 4),
            "trace_overhead": round(trace_overhead, 4),
            "speedup_vs_optimized": round(speedup_vs_opt, 2),
            "speedup_vs_naive": round(speedup_vs_naive, 2),
        }
    )
    emit(
        f"{n_attrs} attrs / {N_ROWS} rows: naive {t_naive:.3f}s, "
        f"optimized {t_opt:.3f}s, vectorized {t_vec:.3f}s "
        f"({speedup_vs_opt:.1f}x vs optimized, "
        f"{speedup_vs_naive:.1f}x vs naive, "
        f"tracing overhead {100 * trace_overhead:+.1f}%)"
    )

    assert speedup_vs_opt > 1.0, "vectorized must beat the scalar engine"
    if n_attrs == 8:
        assert speedup_vs_opt >= 5.0, (
            "acceptance floor: vectorized >= 5x optimized at 8 attributes"
        )
        # 10%, not lower: the obs call sites themselves cost ~1% here (10
        # spans + ~500 counter bumps per run), but on a shared 1-CPU box
        # the paired-median estimator cannot resolve below a few percent.
        # The regression this guards against — span/counter emission
        # sliding into the per-region hot path — costs multiples, not
        # percents, so the wider floor still catches it.
        assert trace_overhead < 0.10, (
            "acceptance floor: tracing adds <10% to the vectorized engine"
        )


@pytest.mark.parametrize("depth", DEPTH_GRID)
def test_engine_depth(benchmark, depth):
    """Deep-lattice sweep: binary attributes, depth-``depth`` hierarchy.

    The naive engine is hopeless here (``3^depth`` regions each re-counted
    from data), so only the two count-reusing engines are compared — with
    the full report lists asserted identical, pinning the count-cube
    kernel to byte-identical results at every depth.
    """
    data = generate(
        make_scalability_config(
            n_rows=DEPTH_ROWS, n_protected=depth, cardinality=2, seed=7
        )
    )

    def run(method):
        return identify_ibs(data, TAU_C, k=K, method=method)

    # One measured round: at depth 12 a single optimized pass is ~12s, so
    # the default calibrating benchmark() loop would blow the CI budget.
    reports = benchmark.pedantic(
        lambda: run(METHOD_VECTORIZED), rounds=1, iterations=1
    )
    assert reports == run(METHOD_OPTIMIZED), (
        "engines disagree at depth; timings void"
    )

    t_vec = _best_seconds(lambda: run(METHOD_VECTORIZED), repeats=2)
    t_opt = _best_seconds(lambda: run(METHOD_OPTIMIZED), repeats=1)
    speedup_vs_opt = t_opt / max(t_vec, 1e-9)
    benchmark.extra_info.update(
        {
            "depth": depth,
            "n_rows": DEPTH_ROWS,
            "regions_found": len(reports),
            "optimized_seconds": round(t_opt, 4),
            "vectorized_seconds": round(t_vec, 4),
            "speedup_vs_optimized": round(speedup_vs_opt, 2),
        }
    )
    emit(
        f"depth {depth} / {DEPTH_ROWS} rows: optimized {t_opt:.3f}s, "
        f"vectorized {t_vec:.3f}s ({speedup_vs_opt:.1f}x vs optimized, "
        f"{len(reports)} regions)"
    )
    assert speedup_vs_opt > 1.0, "vectorized must beat the scalar engine"
