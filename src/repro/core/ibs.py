"""Implicit Biased Set identification (paper Problem 1 / Algorithm 1).

Traverses the hierarchy bottom-up (leaf level → level 1), keeps regions with
more than ``k`` instances, computes each region's imbalance score and its
neighbourhood's, and reports the regions whose difference exceeds ``tau_c``.
The neighbourhood engine is selectable (``naive`` per §III-A, ``optimized``
per §III-B, ``vectorized`` — the §III-B sum over the hierarchy's count cube
for every candidate region at once, see ``docs/performance.md``) as is the
traversal *scope* used in the evaluation's ablation: ``lattice`` (all
levels — the paper's method), ``leaf`` (deepest level only), ``top``
(level 1 only).  All three engines return identical report lists on every
input, and raise the same error on a negative count.

The vectorized engine has one scoring path, :func:`score_cube_cells`,
shared by the audit (:func:`lattice_biased_reports`: every in-scope cube
cell with ``|r| > k`` in one pass), the remedy's per-node step
(:func:`node_biased_reports`) and the stream's dirty-cell re-score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.imbalance import (
    RATIO_UNDEFINED,
    imbalance_score,
    is_biased,
    score_difference,
)
from repro.core.neighbors import (
    EUCLIDEAN_UNIT,
    cell_neighbor_counts,
    naive_neighbor_counts,
    naive_neighbor_counts_scan,
    optimized_neighbor_counts,
)
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.errors import PatternError
from repro.obs import trace as obs

SCOPE_LATTICE = "lattice"
SCOPE_LEAF = "leaf"
SCOPE_TOP = "top"
SCOPES = (SCOPE_LATTICE, SCOPE_LEAF, SCOPE_TOP)

METHOD_NAIVE = "naive"
METHOD_OPTIMIZED = "optimized"
METHOD_VECTORIZED = "vectorized"
METHODS = (METHOD_NAIVE, METHOD_OPTIMIZED, METHOD_VECTORIZED)

DEFAULT_MIN_SIZE = 30  # the paper's central-limit rule of thumb for k


@dataclass(frozen=True)
class RegionReport:
    """One region's imbalance evidence.

    ``ratio`` / ``neighbor_ratio`` follow Definition 3 (``-1`` sentinel for
    an empty negative side); ``difference`` applies the sentinel semantics of
    :func:`repro.core.imbalance.score_difference`.
    """

    pattern: Pattern
    pos: int
    neg: int
    ratio: float
    neighbor_pos: int
    neighbor_neg: int
    neighbor_ratio: float
    difference: float

    @property
    def size(self) -> int:
        return self.pos + self.neg

    @property
    def skew_direction(self) -> int:
        """+1 when the region is positively skewed vs. its neighbourhood
        (``ratio_r > ratio_rn`` — the FPR-inducing case per §V-B1), -1 when
        negatively skewed, 0 when equal/incomparable."""
        if self.difference == 0.0:
            return 0
        if self.neighbor_ratio == -1.0:
            return -1
        if self.ratio == -1.0 or self.ratio > self.neighbor_ratio:
            return +1
        return -1


def report_sort_key(report: RegionReport) -> tuple:
    """Within-level ordering of Algorithm 1's output.

    Descending score difference, ties broken by the pattern's canonical
    item tuple.  Shared by :func:`identify_ibs` and the streaming
    auditor's incremental re-scorer so both produce byte-identical report
    lists for the same data.
    """
    return (-report.difference, report.pattern.items)


def scope_levels(hierarchy: Hierarchy, scope: str) -> list[int]:
    """Hierarchy levels visited under a scope, in bottom-up order."""
    if scope == SCOPE_LATTICE:
        return list(range(hierarchy.max_level, 0, -1))
    if scope == SCOPE_LEAF:
        return [hierarchy.max_level]
    if scope == SCOPE_TOP:
        return [1]
    raise PatternError(f"unknown scope {scope!r}; choose from {SCOPES}")


def region_report(
    hierarchy: Hierarchy,
    node: HierarchyNode,
    pattern: Pattern,
    pos: int,
    neg: int,
    T: float,
    method: str = METHOD_OPTIMIZED,
    metric: str = EUCLIDEAN_UNIT,
    dataset: Dataset | None = None,
) -> RegionReport:
    """Build the imbalance evidence for one region.

    ``method='naive'`` reproduces the paper's §III-A algorithm, recounting
    every neighbour from the raw ``dataset`` (required in that mode unless a
    non-default ``metric`` forces the array-walk fallback); ``'optimized'``
    reuses the hierarchy's dominating-region counts (§III-B).
    ``'vectorized'`` batches candidate cells and is identical to
    ``'optimized'`` for a single region, so it shares that path here; use
    :func:`identify_ibs` or :func:`node_biased_reports` to benefit from the
    batching.
    """
    if method in (METHOD_OPTIMIZED, METHOD_VECTORIZED):
        npos, nneg = optimized_neighbor_counts(hierarchy, pattern, T)
    elif method == METHOD_NAIVE:
        if dataset is not None and metric == EUCLIDEAN_UNIT:
            npos, nneg = naive_neighbor_counts_scan(dataset, node, pattern, T)
        else:
            npos, nneg = naive_neighbor_counts(node, pattern, T, metric=metric)
    else:
        raise PatternError(f"unknown method {method!r}; choose from {METHODS}")
    ratio = imbalance_score(pos, neg)
    nratio = imbalance_score(npos, nneg)
    return RegionReport(
        pattern=pattern,
        pos=pos,
        neg=neg,
        ratio=ratio,
        neighbor_pos=npos,
        neighbor_neg=nneg,
        neighbor_ratio=nratio,
        difference=score_difference(ratio, nratio),
    )


def score_cells(
    pos: np.ndarray,
    neg: np.ndarray,
    npos: np.ndarray,
    nneg: np.ndarray,
    tau_c: float,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score cells at once from their own and neighbour counts.

    Returns ``(ratio, nratio, difference, biased)`` arrays of the counts'
    shape: the Definition-3 imbalance scores (``-1`` sentinel), the
    sentinel-aware score difference, and the Definition-5 membership test
    (``|r| > k`` and a difference above ``tau_c``).  Entry for entry these
    equal :func:`~repro.core.imbalance.imbalance_score`,
    :func:`~repro.core.imbalance.score_difference` and
    :func:`~repro.core.imbalance.is_biased` on the same integers (same
    IEEE-754 ratios and differences).  Counts are not checked for sign
    here: the kernel behind :func:`score_cube_cells` makes
    :func:`imbalance_score`'s check on every cell it scores.
    """
    if tau_c < 0:
        raise ValueError(f"tau_c must be non-negative, got {tau_c}")
    size_ok = (pos + neg) >= k + 1

    ratio = np.full(pos.shape, RATIO_UNDEFINED)
    np.divide(pos, neg, out=ratio, where=neg > 0)
    nratio = np.full(pos.shape, RATIO_UNDEFINED)
    np.divide(npos, nneg, out=nratio, where=nneg > 0)

    r_undef = neg == 0
    n_undef = nneg == 0
    difference = np.abs(ratio - nratio)
    difference = np.where(r_undef ^ n_undef, np.inf, difference)
    difference = np.where(r_undef & n_undef, 0.0, difference)

    biased = size_ok & (difference > tau_c)
    return ratio, nratio, difference, biased


def score_cube_cells(
    hierarchy: Hierarchy, cells: np.ndarray, tau_c: float, T: float, k: int
) -> tuple[np.ndarray, ...]:
    """Score count-cube cells: the one vectorized scoring path.

    One :func:`~repro.core.neighbors.cell_neighbor_counts` call and one
    :func:`score_cells` over ``cells`` (flat cube indices).  Returns
    ``(pos, neg, ratio, npos, nneg, nratio, difference, biased)`` vectors —
    a :class:`RegionReport`'s fields after its pattern, then the
    Definition-5 test.
    """
    pos = hierarchy.cube_pos.reshape(-1)[cells]
    neg = hierarchy.cube_neg.reshape(-1)[cells]
    npos, nneg = cell_neighbor_counts(hierarchy, cells, T)
    ratio, nratio, difference, biased = score_cells(pos, neg, npos, nneg, tau_c, k)
    return pos, neg, ratio, npos, nneg, nratio, difference, biased


def _biased_cell_reports(
    hierarchy: Hierarchy, cells: np.ndarray, tau_c: float, T: float, k: int
) -> list[RegionReport]:
    """Reports of the biased ones among ``cells``, in ``cells`` order.

    Built from ``.tolist()`` columns: the same Python ints and IEEE-754
    floats the scalar engines compute.
    """
    *fields, biased = score_cube_cells(hierarchy, cells, tau_c, T, k)
    hit = np.flatnonzero(biased)
    columns = (field[hit].tolist() for field in fields)
    return [
        RegionReport(*row)
        for row in zip(hierarchy.cell_patterns(cells[hit]), *columns)
    ]


def lattice_biased_reports(
    hierarchy: Hierarchy,
    tau_c: float,
    T: float,
    k: int,
    levels: Sequence[int],
) -> list[RegionReport]:
    """Biased regions of every level in ``levels`` from one kernel pass.

    The candidates are the count-cube cells with ``|r| > k`` at those
    levels — the only cells Definition 5 can hold for — scored all at
    once.  Reports come in cube order; :func:`identify_ibs` sorts them.
    """
    total = (hierarchy.cube_pos + hierarchy.cube_neg).reshape(-1)
    cells = np.flatnonzero(total > k)
    nodes = hierarchy.cell_nodes(cells)
    in_scope = np.zeros(len(hierarchy.attrs) + 1, dtype=bool)
    in_scope[list(levels)] = True
    keep = in_scope[hierarchy.mask_levels[nodes]]
    cells = cells[keep]
    obs.count("ibs.nodes_scanned", np.count_nonzero(np.bincount(nodes[keep])))
    obs.count("ibs.regions_scanned", cells.size)
    reports = _biased_cell_reports(hierarchy, cells, tau_c, T, k)
    obs.count("ibs.biased_regions", len(reports))
    return reports


def node_biased_reports(
    hierarchy: Hierarchy,
    node: HierarchyNode,
    tau_c: float,
    T: float = 1.0,
    k: int = DEFAULT_MIN_SIZE,
    method: str = METHOD_OPTIMIZED,
    dataset: Dataset | None = None,
) -> list[RegionReport]:
    """Biased regions of size > ``k`` within one hierarchy node.

    Algorithm 2's per-node step (``remedy_dataset``, line 3).  Under
    ``method='vectorized'`` the node's cells with ``|r| > k`` are scored
    through the count-cube kernel, and a node whose largest cell is ≤ ``k``
    returns at once; the scalar engines fall back to per-region
    :func:`region_report` calls.  Reports are returned in the node's flat
    cell order (callers sort by score difference).
    """
    if method == METHOD_VECTORIZED:
        if tau_c < 0:
            raise ValueError(f"tau_c must be non-negative, got {tau_c}")
        if node.max_cell_size <= k:
            return []
        total = (node.pos + node.neg).reshape(-1)
        cells = node.cube_cells(np.flatnonzero(total > k))
        obs.count("ibs.nodes_scanned")
        obs.count("ibs.regions_scanned", cells.size)
        reports = _biased_cell_reports(hierarchy, cells, tau_c, T, k)
        obs.count("ibs.biased_regions", len(reports))
        return reports
    reports = []
    scanned = 0
    for pattern, pos, neg in node.iter_regions(min_size=k + 1):
        scanned += 1
        report = region_report(
            hierarchy, node, pattern, pos, neg, T, method=method, dataset=dataset
        )
        if is_biased(report.ratio, report.neighbor_ratio, tau_c):
            reports.append(report)
    if scanned:
        obs.count("ibs.nodes_scanned")
        obs.count("ibs.regions_scanned", scanned)
    obs.count("ibs.biased_regions", len(reports))
    return reports


def identify_ibs(
    dataset: Dataset,
    tau_c: float,
    T: float = 1.0,
    k: int = DEFAULT_MIN_SIZE,
    scope: str = SCOPE_LATTICE,
    method: str = METHOD_OPTIMIZED,
    attrs: Sequence[str] | None = None,
    hierarchy: Hierarchy | None = None,
) -> list[RegionReport]:
    """Algorithm 1: find all biased regions of size > ``k``.

    Parameters
    ----------
    dataset:
        Training data (protected attributes define the intersectional space
        unless ``attrs`` overrides them).
    tau_c:
        Imbalance threshold of Definition 5.
    T:
        Neighbouring-region distance threshold of Definition 4.
    k:
        Size threshold; only regions with ``|r| > k`` are considered.
    scope / method:
        Traversal scope (lattice / leaf / top) and neighbourhood engine
        (optimized / naive / vectorized).  ``vectorized`` scores every
        in-scope candidate cell of the lattice in one kernel pass
        (:func:`lattice_biased_reports`); the scalar engines visit node by
        node.
    hierarchy:
        Optionally a pre-built hierarchy over the same data (reused across
        calls by the remedy loop).

    Returns
    -------
    The IBS as a list of :class:`RegionReport`, ordered bottom-up by level
    then by descending score difference within a level.
    """
    with obs.span(
        "identify_ibs", method=method, scope=scope, tau_c=tau_c, T=T, k=k
    ) as ibs_span:
        if hierarchy is None:
            with obs.span("ibs.build_hierarchy"):
                hierarchy = Hierarchy(dataset, attrs=attrs)
        levels = scope_levels(hierarchy, scope)
        by_level: dict[int, list[RegionReport]] = {}
        if method == METHOD_VECTORIZED:
            for report in lattice_biased_reports(hierarchy, tau_c, T, k, levels):
                by_level.setdefault(report.pattern.level, []).append(report)
        found: list[RegionReport] = []
        for level in levels:
            with obs.span("ibs.level", level=level) as level_span:
                level_reports = by_level.get(level, [])
                if method != METHOD_VECTORIZED:
                    for node in hierarchy.nodes_at_level(level):
                        level_reports.extend(
                            node_biased_reports(
                                hierarchy, node, tau_c, T=T, k=k,
                                method=method, dataset=dataset,
                            )
                        )
                level_reports.sort(key=report_sort_key)
                level_span.annotate(biased=len(level_reports))
                found.extend(level_reports)
        ibs_span.annotate(biased=len(found))
        return found


def ibs_patterns(reports: Sequence[RegionReport]) -> set[Pattern]:
    """The IBS as a set of patterns (convenience for set comparisons)."""
    return {r.pattern for r in reports}


def dominated_biased_regions(
    subgroup: Pattern, reports: Sequence[RegionReport]
) -> list[RegionReport]:
    """Biased regions dominated by ``subgroup`` (``region ⪯ subgroup``).

    Used to reproduce Fig. 3's *blue* marking: an unfair subgroup that is
    not itself in IBS but dominates significant biased regions.
    """
    return [r for r in reports if r.pattern.is_dominated_by(subgroup)]
