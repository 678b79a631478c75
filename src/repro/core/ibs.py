"""Implicit Biased Set identification (paper Problem 1 / Algorithm 1).

Traverses the hierarchy bottom-up (leaf level → level 1), keeps regions with
more than ``k`` instances, computes each region's imbalance score and its
neighbourhood's, and reports the regions whose difference exceeds ``tau_c``.
The neighbourhood engine is selectable (``naive`` per §III-A, ``optimized``
per §III-B, ``vectorized`` — whole-node array evaluation of the §III-B sum,
see ``docs/performance.md``) as is the traversal *scope* used in the
evaluation's ablation: ``lattice`` (all levels — the paper's method),
``leaf`` (deepest level only), ``top`` (level 1 only).  All three engines
return identical report lists on every input.
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
    naive_neighbor_counts,
    naive_neighbor_counts_scan,
    optimized_neighbor_counts,
    vectorized_neighbor_counts,
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
    ``'vectorized'`` batches whole nodes and is identical to
    ``'optimized'`` for a single region, so it shares that path here; use
    :func:`node_biased_reports` to benefit from the batching.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score every cell of a node at once from its own and neighbour counts.

    Returns ``(ratio, nratio, difference, size_ok, biased)`` arrays of the
    counts' shape: the Definition-3 imbalance scores (``-1`` sentinel), the
    sentinel-aware score difference, the ``|r| > k`` size test, and the
    Definition-5 membership test.  Entry for entry these equal
    :func:`~repro.core.imbalance.imbalance_score`,
    :func:`~repro.core.imbalance.score_difference` and
    :func:`~repro.core.imbalance.is_biased` on the same integers (same
    IEEE-754 ratios and differences).  Counts are not checked for sign;
    callers that need :func:`imbalance_score`'s check make it on the cells
    they report.
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
    return ratio, nratio, difference, size_ok, biased


def _vectorized_biased_reports(
    hierarchy: Hierarchy,
    node: HierarchyNode,
    tau_c: float,
    T: float,
    k: int,
    cache: dict | None = None,
) -> list[RegionReport]:
    """Biased regions of one node via whole-array evaluation.

    Computes neighbour counts, imbalance scores, the sentinel-aware score
    difference, and the Definition-5 membership test as array expressions
    over the node's count arrays; only surviving cells are materialised
    into :class:`RegionReport` objects, in the same flat cell order the
    scalar engines visit.  Produces reports identical to the per-region
    path (same integers, same IEEE-754 ratios and differences).

    Empty lattice branches are pruned *before* any broadcasting: a node
    whose largest cell is already ≤ ``k`` (cached on the node) cannot
    contain a reportable region, which at depth 10–12 — where cells vastly
    outnumber rows — skips almost every node.  ``cache`` is threaded to
    :func:`~repro.core.neighbors.vectorized_neighbor_counts` for
    scaled-ancestor reuse across the sibling nodes of a level.
    """
    if tau_c < 0:
        raise ValueError(f"tau_c must be non-negative, got {tau_c}")
    if node.max_cell_size <= k:
        return []
    pos, neg = node.pos, node.neg
    npos, nneg = vectorized_neighbor_counts(hierarchy, node, T, cache=cache)
    ratio, nratio, difference, _size_ok, biased = score_cells(
        pos, neg, npos, nneg, tau_c, k
    )
    reports = []
    for flat in np.flatnonzero(biased.reshape(-1)):
        coords = np.unravel_index(int(flat), node.shape) if node.shape else ()
        coords = tuple(int(c) for c in coords)
        reports.append(
            RegionReport(
                pattern=node.pattern_of(coords),
                pos=int(pos[coords]),
                neg=int(neg[coords]),
                ratio=float(ratio[coords]),
                neighbor_pos=int(npos[coords]),
                neighbor_neg=int(nneg[coords]),
                neighbor_ratio=float(nratio[coords]),
                difference=float(difference[coords]),
            )
        )
    return reports


def node_biased_reports(
    hierarchy: Hierarchy,
    node: HierarchyNode,
    tau_c: float,
    T: float = 1.0,
    k: int = DEFAULT_MIN_SIZE,
    method: str = METHOD_OPTIMIZED,
    dataset: Dataset | None = None,
    cache: dict | None = None,
) -> list[RegionReport]:
    """Biased regions of size > ``k`` within one hierarchy node.

    The shared per-node step of Algorithm 1 (``identify_ibs``) and
    Algorithm 2 (``remedy_dataset``): under ``method='vectorized'`` the
    whole node is evaluated as array expressions; the scalar engines fall
    back to per-region :func:`region_report` calls.  Reports are returned
    in the node's flat cell order (callers sort by score difference).
    ``cache`` (vectorized only) carries scaled ancestor arrays across the
    sibling nodes of a level; it must not outlive a count mutation.
    """
    obs.count("ibs.nodes_scanned")
    obs.count("ibs.regions_scanned", node.n_cells)
    if method == METHOD_VECTORIZED:
        reports = _vectorized_biased_reports(
            hierarchy, node, tau_c, T, k, cache=cache
        )
        obs.count("ibs.biased_regions", len(reports))
        return reports
    reports = []
    for pattern, pos, neg in node.iter_regions(min_size=k + 1):
        report = region_report(
            hierarchy, node, pattern, pos, neg, T, method=method, dataset=dataset
        )
        if is_biased(report.ratio, report.neighbor_ratio, tau_c):
            reports.append(report)
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
        (optimized / naive / vectorized).
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
        found: list[RegionReport] = []
        for level in scope_levels(hierarchy, scope):
            with obs.span("ibs.level", level=level) as level_span:
                level_reports: list[RegionReport] = []
                # Scaled-ancestor arrays are shared across a level's
                # sibling nodes (same coefficients, overlapping ancestors)
                # and dropped at the level boundary.
                level_cache: dict = {}
                for node in hierarchy.nodes_at_level(level):
                    level_reports.extend(
                        node_biased_reports(
                            hierarchy, node, tau_c, T=T, k=k, method=method,
                            dataset=dataset, cache=level_cache,
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
