"""The hierarchy of intersectional regions (paper §III, Fig. 1).

Nodes group all patterns sharing the same *deterministic attribute set*;
a node at level ``d`` holds one cell per value combination of its ``d``
attributes.  Counts of positives and negatives per cell are materialised as
``d``-dimensional numpy arrays: the leaf node is one ``bincount`` over the
dataset's joint codes, and every other node is a marginalisation (axis sum)
of a one-level-deeper node — this is the count-sharing that the optimized
and vectorized identification algorithms exploit (a dominating region's
counts are just a cell of an ancestor node's array).

Two cost-relevant properties (see ``docs/performance.md``):

* **Construction** marginalises each node from its *smallest* already-built
  one-level-deeper superset, one axis at a time, instead of summing the full
  leaf array for every one of the ``2^d`` nodes; the per-node cost decays
  geometrically with the level instead of staying at ``O(leaf cells)``.
* **Incremental updates**: :meth:`Hierarchy.apply_count_delta` folds a
  leaf-granular count change into every node in place, touching only the
  changed cells, so the remedy loop (once per node plan) and the stream
  auditor (once per batch) keep one hierarchy current instead of
  rebuilding it from scratch after every edit.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.core.pattern import Pattern
from repro.errors import PatternError

#: Attribute bitsets are packed into a single machine word.
MAX_ATTRS = 64


class HierarchyNode:
    """One node: a deterministic attribute set plus per-cell label counts.

    ``mask`` is the node's uint64 attribute bitset (bit ``i`` set when the
    hierarchy's ``i``-th attribute is deterministic here) — the vectorized
    engine addresses dominating nodes by clearing bits from it instead of
    building ``frozenset`` keys per drop-subset.
    """

    def __init__(
        self,
        attrs: tuple[str, ...],
        shape: tuple[int, ...],
        pos: np.ndarray,
        neg: np.ndarray,
        mask: int = 0,
    ):
        self.attrs = attrs
        self.shape = shape
        self.pos = pos  # ndarray of shape `shape` (0-d for the root)
        self.neg = neg
        self.mask = mask
        self._max_cell_size: int | None = None

    @property
    def level(self) -> int:
        return len(self.attrs)

    @property
    def max_cell_size(self) -> int:
        """Largest ``|r+| + |r-|`` over this node's cells (cached).

        Lets the lattice traversal prune empty branches — deep nodes whose
        every cell is below the size threshold — without re-reducing the
        count arrays on every identification pass.  The cache is
        invalidated by :meth:`Hierarchy.apply_count_delta`.
        """
        if self._max_cell_size is None:
            self._max_cell_size = int((self.pos + self.neg).max())
        return self._max_cell_size

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

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
        the canonical attribute order of every node.
    max_level:
        Build nodes only up to this level (inclusive); ``None`` builds the
        full lattice of ``2^|attrs|`` nodes (root included).
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
        if len(attrs) > MAX_ATTRS:
            raise PatternError(
                f"hierarchy supports at most {MAX_ATTRS} attributes "
                f"(uint64 bitset), got {len(attrs)}"
            )
        dataset.schema.require_categorical(attrs)
        self.attrs = attrs
        self.max_level = len(attrs) if max_level is None else min(max_level, len(attrs))
        if self.max_level < 1:
            raise PatternError("max_level must be >= 1")

        # Leaf counts once; every other node is built by marginalising its
        # smallest already-built one-level-deeper superset a single axis at
        # a time (geometrically cheaper than summing the full leaf array for
        # each of the 2^d nodes).
        pos_flat, neg_flat, shape = dataset.region_counts(attrs)
        leaf_pos = pos_flat.reshape(shape)
        leaf_neg = neg_flat.reshape(shape)

        self._nodes: dict[frozenset[str], HierarchyNode] = {}
        self._nodes_by_mask: dict[int, HierarchyNode] = {}
        self._levels: dict[int, list[HierarchyNode]] = {}
        axis_of = {a: i for i, a in enumerate(attrs)}
        self._card = {a: shape[axis_of[a]] for a in attrs}
        self._bit_of = {a: 1 << i for i, a in enumerate(attrs)}

        # Deepest stored level comes straight from the leaf array (it *is*
        # the leaf array when max_level == len(attrs)).
        for subset in itertools.combinations(attrs, self.max_level):
            drop_axes = tuple(axis_of[a] for a in attrs if a not in subset)
            pos = leaf_pos.sum(axis=drop_axes) if drop_axes else leaf_pos
            neg = leaf_neg.sum(axis=drop_axes) if drop_axes else leaf_neg
            self._add_node(subset, np.asarray(pos), np.asarray(neg))

        for level in range(self.max_level - 1, -1, -1):
            for subset in itertools.combinations(attrs, level):
                spare = min(
                    (a for a in attrs if a not in subset),
                    key=lambda a: (self._card[a], axis_of[a]),
                )
                parent_attrs = tuple(
                    a for a in attrs if a in subset or a == spare
                )
                parent = self._nodes[frozenset(parent_attrs)]
                axis = parent_attrs.index(spare)
                self._add_node(
                    subset, parent.pos.sum(axis=axis), parent.neg.sum(axis=axis)
                )

    def _add_node(
        self, subset: tuple[str, ...], pos: np.ndarray, neg: np.ndarray
    ) -> None:
        """Register one node in the lookup dicts and the level index."""
        mask = 0
        for a in subset:
            mask |= self._bit_of[a]
        node = HierarchyNode(
            subset,
            tuple(self._card[a] for a in subset),
            np.asarray(pos),
            np.asarray(neg),
            mask=mask,
        )
        self._nodes[frozenset(subset)] = node
        self._nodes_by_mask[mask] = node
        self._levels.setdefault(len(subset), []).append(node)

    # -- lookup ----------------------------------------------------------------
    def node(self, attrs: Sequence[str] | frozenset[str]) -> HierarchyNode:
        """Node for the given deterministic attribute set."""
        key = frozenset(attrs)
        try:
            return self._nodes[key]
        except KeyError:
            raise PatternError(
                f"no hierarchy node for attribute set {sorted(key)}"
            ) from None

    def attr_bit(self, attr: str) -> int:
        """The uint64 bitset bit of one hierarchy attribute."""
        try:
            return self._bit_of[attr]
        except KeyError:
            raise PatternError(
                f"{attr!r} is not a hierarchy attribute {list(self.attrs)}"
            ) from None

    def node_by_mask(self, mask: int) -> HierarchyNode:
        """Node for an attribute bitset (the vectorized engine's hot lookup).

        A bitset probe on an int-keyed dict replaces hashing a
        ``frozenset`` of strings per drop-subset — the per-node constant
        that dominates deep-lattice traversal at Hamming budget 1.
        """
        try:
            return self._nodes_by_mask[mask]
        except KeyError:
            raise PatternError(
                f"no hierarchy node for attribute bitset {mask:#x}"
            ) from None

    def __contains__(self, attrs: object) -> bool:
        if isinstance(attrs, (frozenset, set, tuple, list)):
            return frozenset(attrs) in self._nodes
        return False

    @property
    def root(self) -> HierarchyNode:
        """The level-0 node (the entire dataset)."""
        return self._nodes[frozenset()]

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def levels(self) -> range:
        """Levels with region nodes: 1 .. max_level."""
        return range(1, self.max_level + 1)

    def nodes_at_level(self, level: int) -> list[HierarchyNode]:
        """All nodes whose attribute set has the given size.

        Served from a level index built at construction time (no scan of
        the full node dict); nodes appear in canonical combination order.
        """
        return list(self._levels.get(level, ()))

    def iter_nodes_bottom_up(self) -> Iterator[HierarchyNode]:
        """Region nodes from the leaf level down to level 1 (Alg. 1 order)."""
        for level in range(self.max_level, 0, -1):
            yield from self.nodes_at_level(level)

    def parents(self, node: HierarchyNode) -> list[HierarchyNode]:
        """Nodes one level up (one deterministic attribute removed)."""
        out = []
        for drop in node.attrs:
            key = frozenset(node.attrs) - {drop}
            if key in self._nodes:
                out.append(self._nodes[key])
        return out

    def counts_of(self, pattern: Pattern) -> tuple[int, int]:
        """``(|r+|, |r-|)`` of an arbitrary pattern over hierarchy attrs."""
        return self.node(pattern.attrs).counts_of(pattern)

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
        """Fold a leaf-granular count change inside ``pattern`` into all nodes.

        ``dpos``/``dneg`` are integer arrays over the pattern's free
        attributes (the shape returned by :meth:`region_leaf_counts`),
        holding per-leaf-cell changes of the positive/negative counts; cells
        outside the pattern's slice must be unchanged — which is exactly the
        contract the remedy samplers satisfy, since every row they add,
        drop, or flip matches the remedied region's pattern.  Every stored
        node is updated in place, leaving the hierarchy equal to one freshly
        built from the edited dataset.

        The fold touches only the delta's non-zero cells: their coordinates
        are projected onto each node and scattered with ``np.add.at``, so a
        call costs O(changed cells × nodes), not O(leaf cells × nodes).  A
        remedy node plan changes ~0.5% of the 57,600 cells of the Adult
        leaf; a stream batch over a small leaf may change most of them, and
        there the scatter is still no slower than marginalising the whole
        delta onto every node.
        """
        free = self._free_attrs(pattern)
        want_shape = tuple(self._card[a] for a in free)
        dpos = np.asarray(dpos, dtype=np.int64).reshape(want_shape)
        dneg = np.asarray(dneg, dtype=np.int64).reshape(want_shape)
        changed = np.flatnonzero((dpos != 0) | (dneg != 0))
        if changed.size == 0:
            return
        fixed = pattern.assignment
        # Each changed cell's coordinate per attribute; fixed ones are ints.
        coords = np.unravel_index(changed, want_shape) if free else ()
        where = dict(zip(free, coords), **fixed)
        vpos = dpos.reshape(-1)[changed]
        vneg = dneg.reshape(-1)[changed]
        # Iterate the bitset index, not the frozenset one: it is the index
        # the vectorized engine's node_by_mask pruning reads, so every node
        # reachable there — ancestors included — must see both the count
        # update and the max_cell_size cache invalidation, or a branch a
        # delta emptied (or filled) would be mis-pruned on the next
        # vectorized identify.
        for node in self._nodes_by_mask.values():
            idx = tuple(where[a] for a in node.attrs)
            if fixed.keys() >= set(node.attrs):
                # One cell of this node holds the whole delta.
                node.pos[idx] += vpos.sum()
                node.neg[idx] += vneg.sum()
            else:
                np.add.at(node.pos, idx, vpos)
                np.add.at(node.neg, idx, vneg)
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
