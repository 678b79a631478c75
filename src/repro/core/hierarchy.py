"""The hierarchy of intersectional regions (paper §III, Fig. 1).

Nodes group all patterns sharing the same *deterministic attribute set*;
a node at level ``d`` holds one cell per value combination of its ``d``
attributes.  All nodes live in **one count cube** (the CUBE operator's
ALL value; Gray et al., "Data Cube", ICDE 1996): two int64 arrays of
shape ``∏(cᵢ+1)`` over the hierarchy attributes, where index ``cᵢ`` on
axis ``i`` means "attribute ``i`` is free".  A node's ``pos``/``neg`` are
basic-index views of the cube — ``0:cᵢ`` on the node's axes, ``cᵢ`` on
every other axis — so every region of every node is one cube cell, and a
dominating region's counts are the cell reached by moving the freed axes
to their ALL index.  The cube holds exactly the cells of all ``2^D``
nodes (``∏(cᵢ+1) = Σ_S ∏_{i∈S} cᵢ``).

Two cost-relevant properties (see ``docs/performance.md``):

* **Construction** counts the leaf once (``Dataset.region_counts``) and
  fills the ALL slots in place with one axis sum per attribute: ``D``
  sums instead of ``2^D`` marginalisations.  The same fill
  (:meth:`Hierarchy.fill_cube`) ORs a boolean leaf mask into the stream
  auditor's dirty-region cube.
* **Incremental updates**: :meth:`Hierarchy.apply_count_delta` scatters a
  leaf-granular count change into the cube — each changed leaf cell adds
  to its ``2^D`` projections — so the remedy loop (once per node plan) and
  the stream auditor (once per batch) keep one hierarchy current instead
  of rebuilding it from scratch after every edit.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.core.pattern import Pattern
from repro.errors import PatternError


class HierarchyNode:
    """One node: a deterministic attribute set plus per-cell label counts.

    ``pos``/``neg`` are views into the hierarchy's count cube; in-place
    writes reach the cube, and nothing may rebind them.  ``cube_base`` and
    ``cube_strides`` place the node's cells in the cube's flat index (see
    :meth:`cube_cells`).
    """

    def __init__(
        self,
        attrs: tuple[str, ...],
        shape: tuple[int, ...],
        pos: np.ndarray,
        neg: np.ndarray,
        cube_base: int,
        cube_strides: tuple[int, ...],
    ):
        self.attrs = attrs
        self.shape = shape
        self.pos = pos  # ndarray of shape `shape` (0-d for the root)
        self.neg = neg
        self.cube_base = cube_base
        self.cube_strides = cube_strides
        self._max_cell_size: int | None = None

    @property
    def level(self) -> int:
        return len(self.attrs)

    @property
    def max_cell_size(self) -> int:
        """Largest ``|r+| + |r-|`` over this node's cells (cached).

        Lets the per-node scoring step skip nodes whose every cell is below
        the size threshold without re-reducing the count arrays on every
        pass.  The cache is invalidated by :meth:`Hierarchy.apply_count_delta`.
        """
        if self._max_cell_size is None:
            self._max_cell_size = int((self.pos + self.neg).max())
        return self._max_cell_size

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def cube_cells(self, flat: np.ndarray) -> np.ndarray:
        """Cube flat indices of this node's cells given by node flat indices."""
        flat = np.asarray(flat, dtype=np.int64)
        out = np.full(flat.shape, self.cube_base, dtype=np.int64)
        if self.shape:
            for coord, stride in zip(
                np.unravel_index(flat, self.shape), self.cube_strides
            ):
                out += coord * stride
        return out

    def coords_of(self, pattern: Pattern) -> tuple[int, ...]:
        """Cell coordinates of ``pattern`` (must cover exactly this node)."""
        if pattern.attrs != frozenset(self.attrs):
            raise PatternError(
                f"pattern {pattern!r} does not belong to node {self.attrs}"
            )
        return tuple(pattern.value_of(a) for a in self.attrs)

    def counts_of(self, pattern: Pattern) -> tuple[int, int]:
        """``(|r+|, |r-|)`` for a pattern of this node."""
        coords = self.coords_of(pattern)
        return int(self.pos[coords]), int(self.neg[coords])

    def pattern_of(self, coords: Sequence[int]) -> Pattern:
        """Pattern for a cell coordinate tuple."""
        return Pattern(zip(self.attrs, coords))

    def iter_regions(self, min_size: int = 1) -> Iterator[tuple[Pattern, int, int]]:
        """Yield ``(pattern, |r+|, |r-|)`` for every cell with ≥ min_size rows.

        Matching Problem 1, the paper keeps regions with size strictly
        greater than ``k``; callers pass ``min_size=k+1``.
        """
        total = self.pos + self.neg
        flat = np.flatnonzero(total.reshape(-1) >= min_size)
        for f in flat:
            coords = np.unravel_index(int(f), self.shape) if self.shape else ()
            coords = tuple(int(c) for c in coords)
            yield self.pattern_of(coords), int(self.pos[coords]), int(self.neg[coords])

    @property
    def total_pos(self) -> int:
        return int(self.pos.sum())

    @property
    def total_neg(self) -> int:
        return int(self.neg.sum())


class Hierarchy:
    """All nodes over subsets of the protected attributes of a dataset.

    Parameters
    ----------
    dataset:
        The dataset whose label counts populate the nodes.
    attrs:
        Attribute universe; defaults to ``dataset.protected``.  Order fixes
        the canonical attribute order of every node and the cube's axes.
    max_level:
        Expose nodes only up to this level (inclusive); ``None`` exposes
        the full lattice of ``2^|attrs|`` nodes (root included).  The count
        cube always holds every level.
    """

    def __init__(
        self,
        dataset: Dataset,
        attrs: Sequence[str] | None = None,
        max_level: int | None = None,
    ):
        if attrs is None:
            attrs = dataset.protected
        attrs = tuple(attrs)
        if not attrs:
            raise PatternError("hierarchy needs at least one attribute")
        repeated = sorted({a for a in attrs if attrs.count(a) > 1})
        if repeated:
            raise PatternError(
                f"hierarchy attributes must be distinct; repeated: {repeated}"
            )
        dataset.schema.require_categorical(attrs)
        self.attrs = attrs
        self.max_level = len(attrs) if max_level is None else min(max_level, len(attrs))
        if self.max_level < 1:
            raise PatternError("max_level must be >= 1")

        pos_flat, neg_flat, shape = dataset.region_counts(attrs)
        self.cards = tuple(int(c) for c in shape)
        self._card = dict(zip(attrs, self.cards))
        cube_shape = tuple(c + 1 for c in self.cards)
        #: Element stride of each cube axis in the cube's C-order flat index.
        self.cube_strides = tuple(
            int(np.prod(cube_shape[i + 1:], dtype=np.int64))
            for i in range(len(cube_shape))
        )
        self.cube_pos = self.fill_cube(pos_flat.reshape(shape), np.add)
        self.cube_neg = self.fill_cube(neg_flat.reshape(shape), np.add)
        self._index_cells()
        #: Node views, made on first lookup: an audit that scores the cube
        #: directly never pays for them.
        self._nodes: dict[frozenset[str], HierarchyNode] = {}

    def fill_cube(self, leaf: np.ndarray, reduce: np.ufunc) -> np.ndarray:
        """A cube over ``leaf``: the leaf block plus every ALL slot.

        ``leaf`` is indexed by the hierarchy attributes (shape ``cards``);
        each ALL slot holds ``reduce`` folded over the values it frees, in
        ``leaf``'s dtype.  With ``np.add`` over label counts this is the
        count cube; with ``np.logical_or`` over a boolean leaf it marks
        every cell that projects a marked leaf cell.
        """
        cube = np.empty(tuple(c + 1 for c in self.cards), dtype=leaf.dtype)
        span = [slice(0, c) for c in self.cards]
        cube[tuple(span)] = leaf
        # One fold per attribute.  Each covers only the slots already
        # filled, so after it every cell whose free axes are among the axes
        # folded so far holds its value.  Largest cardinality first keeps
        # the folded spans smallest.
        for axis in sorted(range(len(self.cards)), key=lambda a: (-self.cards[a], -a)):
            values = tuple(span)
            free = values[:axis] + (self.cards[axis],) + values[axis + 1:]
            reduce.reduce(cube[values], axis=axis, out=cube[free + (Ellipsis,)])
            span[axis] = slice(0, self.cards[axis] + 1)
        return cube

    def _index_cells(self) -> None:
        """Lookup tables behind :meth:`cell_nodes` and its siblings.

        A flat cube index splits at the middle axis into two small indices
        (``hi``, ``lo``); each addresses per-axis tables over its half of
        the axes, so a cell's coordinates, freeing offsets and node cost one
        gather each instead of a chain of integer divisions.
        """
        cube_shape = self.cube_pos.shape
        self._split = (len(cube_shape) + 1) // 2
        self._half = self.cube_strides[self._split - 1]
        self._coords: list[np.ndarray] = []
        self._nodes_of: list[np.ndarray] = []
        first = 0
        for half in (cube_shape[: self._split], cube_shape[self._split:]):
            grid = np.indices(half).reshape(len(half), int(np.prod(half)))
            node = np.zeros(grid.shape[1], dtype=np.int64)
            for axis, coords in enumerate(grid, start=first):
                self._coords.append(coords)
                node |= (coords < self.cards[axis]).astype(np.int64) << axis
            self._nodes_of.append(node)
            first += len(half)
        self._free = [
            (card - coords) * stride
            for coords, card, stride in zip(self._coords, self.cards, self.cube_strides)
        ]
        masks = np.arange(1 << len(self.attrs), dtype=np.int64)
        #: Level (number of fixed axes) of each node bitmask of :meth:`cell_nodes`.
        self.mask_levels = sum((masks >> a) & 1 for a in range(len(self.attrs)))
        #: Rank of each node bitmask in Algorithm 1's visiting order, the
        #: order of :meth:`iter_nodes_bottom_up` with the root last.
        axes = [[a for a in range(len(self.attrs)) if m >> a & 1] for m in masks]
        self.node_rank = np.empty_like(masks)
        self.node_rank[sorted(masks, key=lambda m: (-len(axes[m]), axes[m]))] = masks
        #: Axes in attribute-name order (a pattern's item order), and per
        #: axis the ``(attr, code)`` item of each code with None for ALL.
        self._by_name = sorted(range(len(self.attrs)), key=self.attrs.__getitem__)
        self._items = [
            [(a, code) for code in range(card)] + [None]
            for a, card in zip(self.attrs, self.cards)
        ]

    def _make_node(self, key: frozenset[str]) -> HierarchyNode:
        """One node's cube views: ``0:cᵢ`` on its axes, ``cᵢ`` elsewhere."""
        axes = [i for i, a in enumerate(self.attrs) if a in key]
        index: list = list(self.cards)  # every axis free ...
        base = self.cube_pos.size - 1  # ... is the root cell
        for a in axes:
            index[a] = slice(0, self.cards[a])
            base -= self.cards[a] * self.cube_strides[a]
        index.append(Ellipsis)  # keeps the root a 0-d view, not a scalar copy
        return HierarchyNode(
            tuple(self.attrs[a] for a in axes),
            tuple(self.cards[a] for a in axes),
            self.cube_pos[tuple(index)],
            self.cube_neg[tuple(index)],
            base,
            tuple(self.cube_strides[a] for a in axes),
        )

    # -- lookup ----------------------------------------------------------------
    def node(self, attrs: Sequence[str] | frozenset[str]) -> HierarchyNode:
        """Node for the given deterministic attribute set."""
        key = frozenset(attrs)
        node = self._nodes.get(key)
        if node is None:
            if key not in self:
                raise PatternError(
                    f"no hierarchy node for attribute set {sorted(key)}"
                )
            node = self._nodes[key] = self._make_node(key)
        return node

    def __contains__(self, attrs: object) -> bool:
        if isinstance(attrs, (frozenset, set, tuple, list)):
            key = frozenset(attrs)
            return key <= set(self.attrs) and len(key) <= self.max_level
        return False

    @property
    def root(self) -> HierarchyNode:
        """The level-0 node (the entire dataset)."""
        return self.node(())

    @property
    def n_nodes(self) -> int:
        return sum(comb(len(self.attrs), level) for level in range(self.max_level + 1))

    def levels(self) -> range:
        """Levels with region nodes: 1 .. max_level."""
        return range(1, self.max_level + 1)

    def nodes_at_level(self, level: int) -> list[HierarchyNode]:
        """All nodes whose attribute set has the given size.

        A fresh list in canonical combination order (empty past
        ``max_level``).
        """
        if not 0 <= level <= self.max_level:
            return []
        return [self.node(subset) for subset in itertools.combinations(self.attrs, level)]

    def iter_nodes_bottom_up(self) -> Iterator[HierarchyNode]:
        """Region nodes from the leaf level down to level 1 (Alg. 1 order)."""
        for level in range(self.max_level, 0, -1):
            yield from self.nodes_at_level(level)

    def parents(self, node: HierarchyNode) -> list[HierarchyNode]:
        """Nodes one level up (one deterministic attribute removed)."""
        out = []
        for drop in node.attrs:
            key = frozenset(node.attrs) - {drop}
            if key in self:
                out.append(self.node(key))
        return out

    def counts_of(self, pattern: Pattern) -> tuple[int, int]:
        """``(|r+|, |r-|)`` of an arbitrary pattern over hierarchy attrs."""
        return self.node(pattern.attrs).counts_of(pattern)

    # -- cube cells --------------------------------------------------------------
    def _lookup(
        self, tables: list[np.ndarray], cells: np.ndarray, axes: Sequence[int]
    ) -> list[np.ndarray]:
        hi = cells // self._half
        lo = cells - hi * self._half
        return [tables[a][hi if a < self._split else lo] for a in axes]

    def cell_free_offsets(
        self, cells: np.ndarray, axes: Sequence[int]
    ) -> list[np.ndarray]:
        """Per axis in ``axes``, the flat-index move that frees it.

        ``(cᵢ − xᵢ)·strideᵢ``: zero where the cell already leaves axis ``i``
        free.
        """
        return self._lookup(self._free, cells, axes)

    def cell_nodes(self, cells: np.ndarray) -> np.ndarray:
        """Each cube cell's node as a bitmask of its fixed axes."""
        hi = cells // self._half
        return self._nodes_of[0][hi] | self._nodes_of[1][cells - hi * self._half]

    def cell_patterns(self, cells: np.ndarray) -> list[Pattern]:
        """The region pattern of each cube cell, in ``cells`` order."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return []
        fixed = int(np.bitwise_or.reduce(self.cell_nodes(cells)))
        axes = [a for a in self._by_name if fixed >> a & 1]
        items = [self._items[a] for a in axes]
        rows = np.stack(self._lookup(self._coords, cells, axes), axis=1).tolist()
        return [
            Pattern.from_sorted(tuple(filter(None, map(list.__getitem__, items, row))))
            for row in rows
        ]

    # -- incremental updates ---------------------------------------------------
    def _free_attrs(self, pattern: Pattern) -> tuple[str, ...]:
        """Hierarchy attributes the pattern leaves non-deterministic."""
        fixed = pattern.attrs
        unknown = fixed - set(self.attrs)
        if unknown:
            raise PatternError(
                f"pattern attributes {sorted(unknown)} are not hierarchy "
                f"attributes {list(self.attrs)}"
            )
        return tuple(a for a in self.attrs if a not in fixed)

    def region_leaf_counts(
        self, dataset: Dataset, pattern: Pattern
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf-granular ``(pos, neg)`` count arrays of ``pattern``'s slice.

        The arrays are indexed by the pattern's *free* attributes (hierarchy
        attributes it does not fix, in canonical order) and count only the
        rows of ``dataset`` matching the pattern.  Differencing two such
        blocks taken before and after a region edit yields the exact delta
        for :meth:`apply_count_delta`.
        """
        free = self._free_attrs(pattern)
        mask = dataset.mask(pattern.assignment)
        pos_flat, neg_flat, shape = dataset.region_counts(free, rows=mask)
        return pos_flat.reshape(shape), neg_flat.reshape(shape)

    def apply_count_delta(
        self, pattern: Pattern, dpos: np.ndarray, dneg: np.ndarray
    ) -> None:
        """Fold a leaf-granular count change inside ``pattern`` into the cube.

        ``dpos``/``dneg`` are integer arrays over the pattern's free
        attributes (the shape returned by :meth:`region_leaf_counts`),
        holding per-leaf-cell changes of the positive/negative counts; cells
        outside the pattern's slice must be unchanged — which is exactly the
        contract the remedy samplers satisfy, since every row they add,
        drop, or flip matches the remedied region's pattern.  The cube is
        updated in place, leaving the hierarchy equal to one freshly built
        from the edited dataset.

        Only the delta's non-zero cells are touched: each changed leaf cell
        adds to its ``2^D`` projections (its own cube index plus every sum
        of its per-axis freeing offsets), all scattered in one
        ``np.add.at``, so a call costs O(changed cells × 2^D).
        """
        free = self._free_attrs(pattern)
        want_shape = tuple(self._card[a] for a in free)
        dpos = np.asarray(dpos, dtype=np.int64).reshape(want_shape)
        dneg = np.asarray(dneg, dtype=np.int64).reshape(want_shape)
        changed = np.flatnonzero((dpos != 0) | (dneg != 0))
        if changed.size == 0:
            return
        coords = np.unravel_index(changed, want_shape) if free else ()
        where = dict(zip(free, coords), **pattern.assignment)
        # One row per changed cell; doubling the columns once per axis
        # enumerates all 2^D subsets of freed axes.
        targets = np.zeros((changed.size, 1), dtype=np.int64)
        for a, card, stride in zip(self.attrs, self.cards, self.cube_strides):
            coord = np.broadcast_to(where[a], changed.shape).reshape(-1, 1)
            targets += coord * stride
            targets = np.concatenate(
                [targets, targets + (card - coord) * stride], axis=1
            )
        copies = targets.shape[1]
        np.add.at(
            self.cube_pos.reshape(-1), targets.reshape(-1),
            np.repeat(dpos.reshape(-1)[changed], copies),
        )
        np.add.at(
            self.cube_neg.reshape(-1), targets.reshape(-1),
            np.repeat(dneg.reshape(-1)[changed], copies),
        )
        for node in self._nodes.values():
            node._max_cell_size = None  # counts changed; recompute lazily

    def dominating_counts(
        self, pattern: Pattern, drop: Sequence[str]
    ) -> tuple[int, int]:
        """Counts of the dominating region with ``drop`` attributes removed.

        This is the reuse path of the optimized algorithm: the dominating
        region's counts are one cell of an ancestor node's array, already
        materialised.
        """
        dominating = pattern.drop_all(drop)
        return self.node(dominating.attrs).counts_of(dominating)
