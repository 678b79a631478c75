"""Fig. 9 — runtime scalability of IBS identification and remedy (§V-B5).

Four panels, all on the Adult-like data with the protected set extended to
eight attributes (education and occupation added, as the paper does):

* 9a: IBS identification runtime vs. #protected attributes, naive vs.
  optimized vs. vectorized neighbourhood engine (the vectorized series
  goes beyond the paper — see ``docs/performance.md`` for the engine
  derivations and measured speedups);
* 9b: remedy runtime vs. #protected attributes per technique (oversampling
  excluded at the top end — it exhausted memory in the paper);
* 9c: IBS identification runtime vs. data size at 8 protected attributes;
* 9d: remedy runtime vs. data size per technique.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.ibs import (
    METHOD_NAIVE,
    METHOD_OPTIMIZED,
    METHOD_VECTORIZED,
    identify_ibs,
)
from repro.core.remedy import remedy_dataset
from repro.core.samplers import MASSAGING, PREFERENTIAL, UNDERSAMPLING
from repro.data.dataset import Dataset
from repro.data.store.sharded import ShardedDataset
from repro.data.synth.adult import SCALABILITY_PROTECTED, load_adult
from repro.errors import ExperimentError
from repro.experiments.reporting import format_table
from repro.experiments.runner import result_codec
from repro.resilience import CellExecutor, CellSpec, register_cell

DEFAULT_ATTR_GRID = (2, 3, 4, 5, 6, 7, 8)
DEFAULT_SIZE_GRID = (5_000, 10_000, 20_000, 45_222)
REMEDY_TECHNIQUES = (UNDERSAMPLING, PREFERENTIAL, MASSAGING)
IDENTIFY_METHODS = (METHOD_NAIVE, METHOD_OPTIMIZED, METHOD_VECTORIZED)


@dataclass(frozen=True)
class TimingPoint:
    """One measured configuration (``status`` marks failed cells)."""

    x: float  # #attrs or data size
    label: str  # method or technique
    seconds: float
    detail: int  # regions found / regions remedied
    status: str = "ok"


@dataclass(frozen=True)
class ScalabilityResult:
    """Timing curve for one Fig. 9 panel (seconds vs. size or #attrs)."""

    panel: str
    points: tuple[TimingPoint, ...]

    def table(self, x_name: str) -> str:
        headers = (x_name, "variant", "seconds", "regions", "status")
        rows = [
            (p.x, p.label, p.seconds, p.detail, p.status) for p in self.points
        ]
        return format_table(rows=rows, headers=headers, title=f"Fig. {self.panel}")


def _timing_panel(
    executor: CellExecutor | None,
    panel: str,
    fn_id: str,
    grid: Sequence[tuple[int, Dataset, int]],
    label_param: str,
    labels: Sequence[str],
    **params: object,
) -> ScalabilityResult:
    """Run ``fn_id`` once per ``(x, dataset, n_attrs)`` grid point and label.

    Each cell is keyed ``("fig9", panel, str(float(x)), label)``; a failed
    one becomes a marker point instead of aborting the panel.
    """
    executor = executor if executor is not None else CellExecutor()
    cells = [
        (
            x,
            label,
            CellSpec(
                key=("fig9", panel, str(float(x)), label),
                fn_id=fn_id,
                params={
                    "base": base,
                    "x": x,
                    "n_attrs": n_attrs,
                    label_param: label,
                    **params,
                },
            ),
        )
        for x, base, n_attrs in grid
        for label in labels
    ]
    outcomes = executor.run_specs(
        [spec for _, _, spec in cells], *result_codec(TimingPoint)
    )
    nan = float("nan")
    points = [
        cell.value
        if cell.ok
        else TimingPoint(float(x), label, nan, 0, status=cell.marker)
        for (x, label, _), cell in zip(cells, outcomes)
    ]
    return ScalabilityResult(panel, tuple(points))


def _dataset_for(n_rows: int, seed: int) -> Dataset:
    return load_adult(n_rows=n_rows, seed=seed).with_protected(
        SCALABILITY_PROTECTED
    )


@register_cell("fig9.shard_counts")
def shard_counts_cell(
    store: ShardedDataset, lo: int, hi: int, attrs: Sequence[str]
) -> dict:
    """Fig. 9e work unit: partial region counts over shards ``[lo, hi)``.

    ``store`` arrives as a :class:`~repro.data.store.StoreRef` on the
    process backend, so the worker memory-maps only the shard files in its
    span — the unit of parallelism is a shard, not the dataset.
    """
    start = time.perf_counter()
    pos, neg, shape = store.shard_region_counts(range(lo, hi), tuple(attrs))
    seconds = time.perf_counter() - start
    return {
        "lo": lo,
        "hi": hi,
        "pos": pos.tolist(),
        "neg": neg.tolist(),
        "shape": list(shape),
        "seconds": seconds,
    }


def sharded_region_counts(
    store: ShardedDataset,
    attrs: Sequence[str],
    executor: CellExecutor | None = None,
    shards_per_cell: int = 1,
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Fan ``region_counts`` out over shard-granular cells and reduce.

    Splits the store's shards into ``shards_per_cell``-sized spans, runs one
    ``fig9.shard_counts`` cell per span on ``executor`` (in-process or the
    worker pool — the pool ships the store as a ref, each worker maps only
    its spans), and sums the partials.  The result is byte-identical to
    ``store.region_counts(attrs)`` because shard ``bincount``s add exactly.
    """
    if shards_per_cell < 1:
        raise ExperimentError(
            f"shards_per_cell must be >= 1, got {shards_per_cell}"
        )
    executor = executor if executor is not None else CellExecutor()
    attrs = tuple(attrs)
    spans = [
        (lo, min(lo + shards_per_cell, store.n_shards))
        for lo in range(0, store.n_shards, shards_per_cell)
    ]
    specs = [
        CellSpec(
            key=("fig9", "9e", f"{lo}-{hi}", ",".join(attrs)),
            fn_id="fig9.shard_counts",
            params={"store": store, "lo": lo, "hi": hi, "attrs": attrs},
        )
        for lo, hi in spans
    ]
    outcomes = executor.run_specs(specs)
    shape = store.schema.cardinalities(attrs)
    size = 1
    for card in shape:
        size *= card
    pos = np.zeros(size, dtype=np.int64)
    neg = np.zeros(size, dtype=np.int64)
    for (lo, hi), cell in zip(spans, outcomes):
        if not cell.ok:
            raise ExperimentError(
                f"shard span [{lo}, {hi}) failed: {cell.marker}"
            )
        pos += np.asarray(cell.value["pos"], dtype=np.int64)
        neg += np.asarray(cell.value["neg"], dtype=np.int64)
    return pos, neg, shape


@register_cell("fig9.identify")
def identify_cell(
    base: Dataset, x: int, n_attrs: int, tau_c: float, T: float, k: int, method: str
) -> TimingPoint:
    """Fig. 9a/9c cell: time one identification run over ``base``.

    ``x`` is the point's abscissa (``n_attrs`` or ``base``'s row count);
    the dataset is built by the driver, outside the timed region.
    """
    attrs = SCALABILITY_PROTECTED[:n_attrs]
    start = time.perf_counter()
    ibs = identify_ibs(base, tau_c, T=T, k=k, method=method, attrs=attrs)
    seconds = time.perf_counter() - start
    return TimingPoint(x, method, seconds, len(ibs))


@register_cell("fig9.remedy")
def remedy_cell(
    base: Dataset,
    x: int,
    n_attrs: int,
    tau_c: float,
    T: float,
    k: int,
    technique: str,
    seed: int,
) -> TimingPoint:
    """Fig. 9b/9d cell: time one remedy run over ``base``, as :func:`identify_cell`."""
    attrs = SCALABILITY_PROTECTED[:n_attrs]
    start = time.perf_counter()
    result = remedy_dataset(
        base, tau_c, T=T, k=k, technique=technique, attrs=attrs, seed=seed
    )
    seconds = time.perf_counter() - start
    return TimingPoint(x, technique, seconds, result.n_regions_remedied)


def identification_vs_attrs(
    n_rows: int = 45_222,
    attr_grid: Sequence[int] = DEFAULT_ATTR_GRID,
    tau_c: float = 0.5,
    T: float = 1.0,
    k: int = 30,
    seed: int = 5,
    methods: Sequence[str] = IDENTIFY_METHODS,
    executor: CellExecutor | None = None,
) -> ScalabilityResult:
    """Fig. 9a: identification runtime vs. number of protected attributes."""
    base = _dataset_for(n_rows, seed)
    grid = [(n_attrs, base, n_attrs) for n_attrs in attr_grid]
    return _timing_panel(
        executor, "9a", "fig9.identify", grid, "method", methods,
        tau_c=tau_c, T=T, k=k,
    )


def remedy_vs_attrs(
    n_rows: int = 45_222,
    attr_grid: Sequence[int] = DEFAULT_ATTR_GRID,
    tau_c: float = 0.5,
    T: float = 1.0,
    k: int = 30,
    seed: int = 5,
    techniques: Sequence[str] = REMEDY_TECHNIQUES,
    executor: CellExecutor | None = None,
) -> ScalabilityResult:
    """Fig. 9b: remedy runtime vs. number of protected attributes.

    Oversampling is excluded by default, as in the paper ("exceeded the
    memory resource limit"); pass it in ``techniques`` to include it anyway.
    """
    base = _dataset_for(n_rows, seed)
    grid = [(n_attrs, base, n_attrs) for n_attrs in attr_grid]
    return _timing_panel(
        executor, "9b", "fig9.remedy", grid, "technique", techniques,
        tau_c=tau_c, T=T, k=k, seed=seed,
    )


def identification_vs_size(
    size_grid: Sequence[int] = DEFAULT_SIZE_GRID,
    n_attrs: int = 8,
    tau_c: float = 0.5,
    T: float = 1.0,
    k: int = 30,
    seed: int = 5,
    methods: Sequence[str] = IDENTIFY_METHODS,
    executor: CellExecutor | None = None,
) -> ScalabilityResult:
    """Fig. 9c: identification runtime vs. data size (8 protected attrs)."""
    grid = [(n_rows, _dataset_for(n_rows, seed), n_attrs) for n_rows in size_grid]
    return _timing_panel(
        executor, "9c", "fig9.identify", grid, "method", methods,
        tau_c=tau_c, T=T, k=k,
    )


def remedy_vs_size(
    size_grid: Sequence[int] = DEFAULT_SIZE_GRID,
    n_attrs: int = 8,
    tau_c: float = 0.5,
    T: float = 1.0,
    k: int = 30,
    seed: int = 5,
    techniques: Sequence[str] = REMEDY_TECHNIQUES,
    executor: CellExecutor | None = None,
) -> ScalabilityResult:
    """Fig. 9d: remedy runtime vs. data size (8 protected attrs)."""
    grid = [(n_rows, _dataset_for(n_rows, seed), n_attrs) for n_rows in size_grid]
    return _timing_panel(
        executor, "9d", "fig9.remedy", grid, "technique", techniques,
        tau_c=tau_c, T=T, k=k, seed=seed,
    )


def speedup_summary(
    result: ScalabilityResult,
    baseline: str = METHOD_NAIVE,
    target: str = METHOD_OPTIMIZED,
) -> dict[float, float]:
    """``baseline``/``target`` runtime ratio per x value (Fig. 9a/9c headline).

    Defaults reproduce the paper's naive-vs-optimized comparison; pass
    ``baseline='optimized', target='vectorized'`` for the whole-level
    engine's headline (``docs/performance.md``).
    """
    by_x: dict[float, dict[str, float]] = {}
    for p in result.points:
        by_x.setdefault(p.x, {})[p.label] = p.seconds
    out = {}
    for x, timings in sorted(by_x.items()):
        if baseline in timings and target in timings:
            denom = max(timings[target], 1e-9)
            out[x] = timings[baseline] / denom
    return out
