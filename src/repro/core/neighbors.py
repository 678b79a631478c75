"""Neighbouring-region counting (paper Definition 4, §III-A/B).

Three interchangeable engines compute ``(|r_n+|, |r_n-|)`` — the label
counts of the union of regions within distance ``T`` of a region ``r``:

* :func:`naive_neighbor_counts` enumerates every neighbouring cell and sums
  its counts, exactly the §III-A procedure with its ``(c-1)·d·T`` cost;
* :func:`optimized_neighbor_counts` combines cached *dominating-region*
  counts (cells of ancestor hierarchy nodes) with inclusion–exclusion
  coefficients, the §III-B optimisation that touches only ``O(d^T)``
  pre-aggregated regions.  For ``T=1`` it reduces to the paper's formula
  ``ratio_rn = (Σ_{R_d}|r_k+| − |R_d|·|r+|) / (Σ_{R_d}|r_k-| − |R_d|·|r-|)``;
* :func:`cell_neighbor_counts` — the vectorized engine's one kernel —
  evaluates the same inclusion–exclusion sum for **any set of count-cube
  cells at once**, from any mix of nodes and levels: freeing axis set ``S``
  moves a cell by a per-cell flat offset, so each term is one gather over
  all cells (see ``docs/performance.md``).  Callers pass only candidates
  (``|r| > k``, dirty cells in the stream);
  :func:`vectorized_neighbor_counts` is the kernel over all of one node.

Distance semantics: attribute values are one unit apart, so a region
differing from ``r`` in ``j`` attributes lies at Euclidean distance
``sqrt(j)``; a threshold ``T`` therefore admits differences in at most
``floor(T²)`` attributes (the *Hamming budget*).  ``T = 1`` gives budget 1
(Example 5); ``T = |X|`` covers the whole node.  An optional per-attribute
*ordinal* metric (``|code_i − code_j|`` per attribute) is supported by the
naive engine for ordered domains — the refinement §II-B suggests.
"""

from __future__ import annotations

import itertools
from math import comb, floor
from typing import Iterator

import numpy as np

from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.imbalance import imbalance_score
from repro.core.pattern import Pattern
from repro.errors import PatternError

EUCLIDEAN_UNIT = "euclidean-unit"
ORDINAL = "ordinal"
METRICS = (EUCLIDEAN_UNIT, ORDINAL)


def hamming_budget(T: float, d: int) -> int:
    """Max number of differing attributes admitted by threshold ``T``.

    ``floor(T²)`` clamped to ``[1, d]``; a threshold below 1 admits no
    neighbour at all and is rejected.
    """
    if T < 1:
        raise PatternError(f"distance threshold T must be >= 1, got {T}")
    if d < 1:
        raise PatternError("region must have at least one deterministic attribute")
    return max(1, min(int(floor(T * T + 1e-9)), d))


def iter_neighbor_cells(
    node: HierarchyNode, coords: tuple[int, ...], budget: int
) -> Iterator[tuple[int, ...]]:
    """Yield coordinates of every cell differing from ``coords`` in 1..budget axes."""
    d = len(coords)
    for n_diff in range(1, budget + 1):
        for axes in itertools.combinations(range(d), n_diff):
            choices = [
                [v for v in range(node.shape[ax]) if v != coords[ax]] for ax in axes
            ]
            for replacement in itertools.product(*choices):
                cell = list(coords)
                for ax, v in zip(axes, replacement):
                    cell[ax] = v
                yield tuple(cell)


def naive_neighbor_counts(
    node: HierarchyNode,
    pattern: Pattern,
    T: float = 1.0,
    metric: str = EUCLIDEAN_UNIT,
) -> tuple[int, int]:
    """Neighbourhood counts by explicit cell enumeration over node arrays.

    This is the semantic reference used by property tests to validate the
    optimized engine; for the paper's §III-A *cost model* (each neighbour is
    counted from the raw data) see :func:`naive_neighbor_counts_scan`.

    With ``metric='ordinal'`` the per-attribute distance is the absolute
    code difference instead of the 0/1 unit distance, and a cell is a
    neighbour when the full Euclidean distance over all attributes is ≤ T.
    """
    if metric not in METRICS:
        raise PatternError(f"unknown metric {metric!r}; choose from {METRICS}")
    coords = node.coords_of(pattern)
    d = len(coords)
    pos = neg = 0
    if metric == EUCLIDEAN_UNIT:
        budget = hamming_budget(T, d)
        for cell in iter_neighbor_cells(node, coords, budget):
            pos += int(node.pos[cell])
            neg += int(node.neg[cell])
        return pos, neg

    # Ordinal metric: a broadcast distance grid over cell coordinates
    # replaces the Python full scan — per-axis squared code offsets are
    # outer-added into one d-dimensional squared-distance array.
    dist2 = np.zeros(node.shape, dtype=np.int64)
    for ax, (c, size) in enumerate(zip(coords, node.shape)):
        offsets = (np.arange(size, dtype=np.int64) - c) ** 2
        dist2 = dist2 + offsets.reshape(
            tuple(size if i == ax else 1 for i in range(d))
        )
    within = np.sqrt(dist2.astype(np.float64)) <= T + 1e-9
    within[coords] = False  # the region itself is not its own neighbour
    return int(node.pos[within].sum()), int(node.neg[within].sum())


def naive_neighbor_counts_scan(
    dataset,
    node: HierarchyNode,
    pattern: Pattern,
    T: float = 1.0,
) -> tuple[int, int]:
    """The paper's naive algorithm (§III-A): count each neighbour from data.

    For every one of the ``(c-1)·d·T`` neighbouring regions, the counts
    ``|r_ni+|`` and ``|r_ni-|`` are computed by scanning the dataset with the
    neighbour's pattern mask — no reuse of pre-aggregated counts.  This is
    the cost profile the optimized algorithm is benchmarked against in
    Fig. 9a/9c.
    """
    coords = node.coords_of(pattern)
    budget = hamming_budget(T, len(coords))
    pos = neg = 0
    for cell in iter_neighbor_cells(node, coords, budget):
        neighbor = node.pattern_of(cell)
        p, n = dataset.counts(neighbor.assignment)
        pos += p
        neg += n
    return pos, neg


def inclusion_exclusion_coefficients(d: int, budget: int) -> list[int]:
    """Coefficient of Σ_{|S|=j} dom(S) in the neighbourhood-count expansion.

    The union of cells differing in 1..budget attributes satisfies
    ``N = Σ_j coeff(j) · Σ_{|S|=j} dom(S)`` where ``dom(S)`` is the count of
    the dominating region with attribute set ``S`` freed (``dom(∅)`` is the
    region itself).  Derivation: Möbius inversion of exact-difference cell
    counts over the dominance lattice;
    ``coeff(j) = Σ_{s=max(j,1)}^{budget} (−1)^{s−j} · C(d−j, s−j)``.
    For ``budget=1`` this yields ``coeff(0) = −d, coeff(1) = 1`` — the
    paper's ``Σ dom − |R_d|·r`` formula.
    """
    coeffs = []
    for j in range(0, budget + 1):
        c = sum(
            (-1) ** (s - j) * comb(d - j, s - j)
            for s in range(max(j, 1), budget + 1)
        )
        coeffs.append(c)
    return coeffs


def optimized_neighbor_counts(
    hierarchy: Hierarchy,
    pattern: Pattern,
    T: float = 1.0,
) -> tuple[int, int]:
    """Neighbourhood counts from dominating-region counts (§III-B).

    Requires the hierarchy to contain every node up to ``budget`` levels
    above the pattern's node (always true for a full hierarchy).
    """
    d = pattern.level
    budget = hamming_budget(T, d)
    coeffs = inclusion_exclusion_coefficients(d, budget)
    attrs = sorted(pattern.attrs)

    pos = neg = 0
    for j in range(0, budget + 1):
        c = coeffs[j]
        if c == 0:
            continue
        for drop in itertools.combinations(attrs, j):
            dp, dn = hierarchy.dominating_counts(pattern, drop)
            pos += c * dp
            neg += c * dn
    return pos, neg


def _inverse_binomial(n: int, m: int) -> int:
    """Coefficient of ``x^m`` in ``(1 + x)^(−n)``."""
    return 1 if m == 0 else (-1) ** m * comb(n + m - 1, m)


def _subset_weights(
    n_axes: int, levels: np.ndarray, T: float
) -> list[int | np.ndarray]:
    """Per-cell weight of each subset size in :func:`cell_neighbor_counts`.

    The kernel gathers, for every subset ``A`` of the ``D`` axes it works
    on (``n_axes``) with ``|A| ≤ budget``, the cell reached by freeing
    ``A``.  Freeing an axis the cell already leaves free moves nowhere, so
    for a level-``d`` cell the size-``j`` gathers sum to
    ``G_j = Σ_i C(D−d, j−i) · H_i``,
    where ``H_i = Σ_{|S|=i} dom(S)`` runs over the cell's own fixed axes.
    Inverting that binomial convolution gives the neighbourhood count
    ``N = Σ_i coeff_d(i) · H_i = Σ_j w_d(j) · G_j`` with
    ``w_d(j) = Σ_{i≥j} coeff_d(i) · [x^{i−j}](1+x)^{−(D−d)}``.  At budget 1
    this is ``w(0) = −D, w(1) = 1`` for every level.  Entry ``j`` is an int
    when every cell shares it, else an array over the cells.
    """
    present = np.flatnonzero(np.bincount(levels, minlength=n_axes + 1)).tolist()
    rows: dict[int, list[int]] = {}
    for d in present:
        budget = hamming_budget(T, d)
        coeffs = inclusion_exclusion_coefficients(d, budget)
        rows[d] = [
            sum(
                coeffs[i] * _inverse_binomial(n_axes - d, i - j)
                for i in range(j, budget + 1)
            )
            for j in range(budget + 1)
        ]
    weights: list[int | np.ndarray] = []
    for j in range(max(len(row) for row in rows.values())):
        table = np.zeros(n_axes + 1, dtype=np.int64)
        for d, row in rows.items():
            table[d] = row[j] if j < len(row) else 0
        if len({int(table[d]) for d in present}) == 1:
            weights.append(int(table[present[0]]))
        else:
            weights.append(table[levels])
    return weights


def _freed(
    cells: np.ndarray, free: list[np.ndarray], max_size: int
) -> Iterator[tuple[int, np.ndarray]]:
    """``(|A|, cells + Σ_{a∈A} free[a])`` for every axis subset, 1 ≤ |A| ≤ max_size."""
    stack = [(cells, 0, 0)]
    while stack:
        index, size, first = stack.pop()
        for axis in range(first, len(free)):
            moved = index + free[axis]
            yield size + 1, moved
            if size + 1 < max_size:
                stack.append((moved, size + 1, axis + 1))


def cell_neighbor_counts(
    hierarchy: Hierarchy, cells: np.ndarray, T: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbourhood counts of count-cube cells from any mix of nodes and levels.

    ``cells`` are flat indices into the hierarchy's count cube; each must
    be a region (level ≥ 1).  Freeing axis set ``S`` moves cell ``x`` to
    ``x + Σ_{a∈S}(c_a − x_a)·stride_a``, so each inclusion–exclusion term
    of :func:`optimized_neighbor_counts` is one gather over all cells, with
    per-cell weights by level (:func:`_subset_weights`).  At Hamming budget
    1 — every ``T < √2``, the paper's ``T = 1`` included — that is
    ``N = Σ_a gather_a − D·own`` with no per-cell weights at all.

    Returns int64 ``(npos, nneg)`` vectors aligned with ``cells``; entry
    ``i`` is exactly ``optimized_neighbor_counts`` of cell ``i``'s pattern.
    A negative own or neighbour count on any of the cells raises
    :func:`~repro.core.imbalance.imbalance_score`'s ``ValueError``.
    """
    cells = np.asarray(cells, dtype=np.int64).reshape(-1)
    if cells.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    flat_pos = hierarchy.cube_pos.reshape(-1)
    flat_neg = hierarchy.cube_neg.reshape(-1)
    own_pos, own_neg = flat_pos[cells], flat_neg[cells]
    nodes = hierarchy.cell_nodes(cells)
    if not nodes.all():
        hamming_budget(T, 0)  # raises: the root (every axis free) is no region
    # Freeing an axis that every cell leaves free moves no cell: skip it.
    fixed_somewhere = int(np.bitwise_or.reduce(nodes))
    free = hierarchy.cell_free_offsets(
        cells, [a for a in range(len(hierarchy.attrs)) if fixed_somewhere >> a & 1]
    )
    if hamming_budget(T, len(free)) == 1:
        weights: list[int | np.ndarray] = [-len(free), 1]  # every level
    else:
        weights = _subset_weights(len(free), hierarchy.mask_levels[nodes], T)
    npos = weights[0] * own_pos
    nneg = weights[0] * own_neg
    for size, moved in _freed(cells, free, len(weights) - 1):
        weight = weights[size]
        if isinstance(weight, int) and weight == 0:
            continue
        if isinstance(weight, int) and weight == 1:
            npos += flat_pos[moved]
            nneg += flat_neg[moved]
        else:
            npos += weight * flat_pos[moved]
            nneg += weight * flat_neg[moved]
    if min(own_pos.min(), own_neg.min(), npos.min(), nneg.min()) < 0:
        i = int(np.flatnonzero(
            (own_pos < 0) | (own_neg < 0) | (npos < 0) | (nneg < 0)
        )[0])
        imbalance_score(int(own_pos[i]), int(own_neg[i]))
        imbalance_score(int(npos[i]), int(nneg[i]))
    return npos, nneg


def vectorized_neighbor_counts(
    hierarchy: Hierarchy, node: HierarchyNode, T: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbourhood counts of **every cell** of ``node`` as two arrays.

    :func:`cell_neighbor_counts` over all of the node's cells.  Returns
    ``(pos, neg)`` int64 arrays of ``node.shape``; entry ``c`` is exactly
    ``optimized_neighbor_counts(hierarchy, node.pattern_of(c), T)``.
    ``node`` must be a region node (level ≥ 1).
    """
    cells = node.cube_cells(np.arange(node.n_cells))
    npos, nneg = cell_neighbor_counts(hierarchy, cells, T)
    return npos.reshape(node.shape), nneg.reshape(node.shape)
