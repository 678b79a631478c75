"""Unit tests for repro.core.hierarchy."""

import numpy as np
import pytest

from repro.core import Hierarchy, Pattern
from repro.errors import PatternError


class TestStructure:
    def test_node_count_full_lattice(self, toy_dataset):
        h = Hierarchy(toy_dataset)  # 2 protected attrs -> 2^2 nodes incl root
        assert h.n_nodes == 4

    def test_levels(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        assert list(h.levels()) == [1, 2]

    def test_max_level_limits_nodes(self, biased_dataset):
        h = Hierarchy(biased_dataset, max_level=1)
        assert h.max_level == 1
        assert len(h.nodes_at_level(1)) == 2
        with pytest.raises(PatternError):
            h.node(("a", "b"))

    def test_needs_attribute(self, toy_dataset):
        with pytest.raises(PatternError):
            Hierarchy(toy_dataset, attrs=())

    def test_repeated_attribute_rejected_before_counting(self, monkeypatch):
        from repro.data.dataset import Dataset
        from repro.data.synth import load_adult

        data = load_adult(2000, seed=1)

        def no_counting(*args, **kwargs):
            raise AssertionError("counted a hierarchy with a repeated attribute")

        monkeypatch.setattr(Dataset, "region_counts", no_counting)
        with pytest.raises(PatternError, match="repeated: \\['age'\\]"):
            Hierarchy(data, attrs=("age", "age"))

    def test_bottom_up_order(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        levels = [n.level for n in h.iter_nodes_bottom_up()]
        assert levels == sorted(levels, reverse=True)

    def test_parents(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        leaf = h.node(("age", "sex"))
        parents = h.parents(leaf)
        assert {p.attrs for p in parents} == {("age",), ("sex",)}

    def test_root_counts(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        assert h.root.total_pos == toy_dataset.n_positive
        assert h.root.total_neg == toy_dataset.n_negative


class TestCounts:
    def test_node_counts_match_dataset(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        for level in h.levels():
            for node in h.nodes_at_level(level):
                for pattern, pos, neg in node.iter_regions(min_size=1):
                    assert (pos, neg) == biased_dataset.counts(pattern.assignment)

    def test_marginalisation_consistency(self, biased_dataset):
        """Each node's totals must equal the dataset totals."""
        h = Hierarchy(biased_dataset)
        for level in h.levels():
            for node in h.nodes_at_level(level):
                assert node.total_pos == biased_dataset.n_positive
                assert node.total_neg == biased_dataset.n_negative

    def test_counts_of_pattern(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        p = Pattern([("age", 0), ("sex", 0)])
        assert h.counts_of(p) == (4, 0)

    def test_coords_of_wrong_node(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        node = h.node(("age",))
        with pytest.raises(PatternError):
            node.coords_of(Pattern([("sex", 0)]))

    def test_iter_regions_min_size_filters(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        node = h.node(("age", "sex"))
        all_regions = list(node.iter_regions(min_size=1))
        big_regions = list(node.iter_regions(min_size=4))
        assert len(big_regions) < len(all_regions)
        assert all(pos + neg >= 4 for __, pos, neg in big_regions)

    def test_dominating_counts(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        p = Pattern([("age", 0), ("sex", 0)])
        assert h.dominating_counts(p, ["sex"]) == toy_dataset.counts({"age": 0})
        assert h.dominating_counts(p, ["age", "sex"]) == (
            toy_dataset.n_positive,
            toy_dataset.n_negative,
        )

    def test_unknown_node_lookup(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        with pytest.raises(PatternError):
            h.node(("ghost",))

    def test_contains(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        assert ("age",) in h
        assert ("ghost",) not in h
        assert "age" not in h  # only collections are keys

    def test_pattern_of_roundtrip(self, toy_dataset):
        h = Hierarchy(toy_dataset)
        node = h.node(("age", "sex"))
        p = node.pattern_of((2, 1))
        assert node.coords_of(p) == (2, 1)


def _assert_hierarchies_equal(a, b):
    assert a.attrs == b.attrs and a.max_level == b.max_level
    for level in range(0, a.max_level + 1):
        nodes_a, nodes_b = a.nodes_at_level(level), b.nodes_at_level(level)
        assert [n.attrs for n in nodes_a] == [n.attrs for n in nodes_b]
        for na, nb in zip(nodes_a, nodes_b):
            assert np.array_equal(na.pos, nb.pos), na.attrs
            assert np.array_equal(na.neg, nb.neg), na.attrs


class TestLevelIndex:
    def test_nodes_at_level_in_canonical_order(self, biased_dataset):
        """The level index preserves itertools.combinations order."""
        import itertools

        h = Hierarchy(biased_dataset)
        for level in range(0, h.max_level + 1):
            got = [n.attrs for n in h.nodes_at_level(level)]
            assert got == list(itertools.combinations(h.attrs, level))

    def test_nodes_at_level_returns_fresh_list(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        first = h.nodes_at_level(1)
        first.clear()
        assert len(h.nodes_at_level(1)) == 2  # index not corrupted by callers

    def test_empty_level_is_empty_list(self, biased_dataset):
        h = Hierarchy(biased_dataset, max_level=1)
        assert h.nodes_at_level(2) == []


class TestIncrementalBuild:
    def test_every_node_is_leaf_marginalisation(self, biased_dataset):
        """Chained single-axis sums equal direct full-leaf marginalisation."""
        import itertools

        h = Hierarchy(biased_dataset)
        attrs = h.attrs
        pos_flat, neg_flat, shape = biased_dataset.region_counts(attrs)
        leaf_pos, leaf_neg = pos_flat.reshape(shape), neg_flat.reshape(shape)
        axis_of = {a: i for i, a in enumerate(attrs)}
        for level in range(0, h.max_level + 1):
            for subset in itertools.combinations(attrs, level):
                drop = tuple(axis_of[a] for a in attrs if a not in subset)
                node = h.node(subset)
                want_pos = leaf_pos.sum(axis=drop) if drop else leaf_pos
                want_neg = leaf_neg.sum(axis=drop) if drop else leaf_neg
                assert np.array_equal(node.pos, want_pos), subset
                assert np.array_equal(node.neg, want_neg), subset

    def test_truncated_lattice_matches_full(self, biased_dataset):
        full = Hierarchy(biased_dataset)
        part = Hierarchy(biased_dataset, max_level=1)
        for node in part.nodes_at_level(1):
            ref = full.node(node.attrs)
            assert np.array_equal(node.pos, ref.pos)
            assert np.array_equal(node.neg, ref.neg)


def _sparse_dataset(cards, n_rows, seed, max_level=None):
    """Few rows over many cells, so most leaf cells (and some marginals) are empty."""
    from repro.data import Dataset, schema_from_domains

    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(len(cards))]
    schema = schema_from_domains(
        {n: tuple(f"v{j}" for j in range(c)) for n, c in zip(names, cards)}
    )
    columns = {n: rng.integers(0, c, size=n_rows) for n, c in zip(names, cards)}
    data = Dataset(schema, columns, rng.integers(0, 2, size=n_rows), protected=names)
    return Hierarchy(data, max_level=max_level)


class TestCubeFill:
    def test_or_fill_marks_exactly_the_cells_the_count_fill_makes_positive(self):
        h = _sparse_dataset((3, 2, 4, 2), n_rows=9, seed=3)
        total = h.cube_pos + h.cube_neg
        leaf = total[tuple(slice(0, c) for c in h.cards)] > 0
        assert leaf.any() and not leaf.all()
        marked = h.fill_cube(leaf, np.logical_or)
        assert marked.dtype == bool
        assert np.array_equal(marked, total > 0)
        assert not marked.all()  # some marginal cells stay empty too

    def test_or_fill_of_any_mask_is_the_positive_count_fill(self):
        h = _sparse_dataset((3, 2, 4, 2), n_rows=50, seed=4)
        rng = np.random.default_rng(0)
        for density in (0.0, 0.05, 0.3, 1.0):
            leaf = rng.random(h.cards) < density
            counts = h.fill_cube(leaf.astype(np.int64), np.add)
            assert counts.dtype == np.int64
            assert np.array_equal(h.fill_cube(leaf, np.logical_or), counts > 0)

    def test_count_cube_is_int64(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        assert h.cube_pos.dtype == h.cube_neg.dtype == np.int64

    @pytest.mark.parametrize(
        "cards, max_level",
        [
            ((3,), None),
            ((2, 3, 2), None),
            ((2, 2, 3, 2, 2), None),
            ((2, 2, 3, 2, 2), 2),
        ],
    )
    def test_node_rank_orders_nodes_as_iter_nodes_bottom_up(self, cards, max_level):
        h = _sparse_dataset(cards, n_rows=20, seed=1, max_level=max_level)
        walked = [
            int(h.cell_nodes(np.array([node.cube_base]))[0])
            for node in h.iter_nodes_bottom_up()
        ]
        in_scope = [
            mask for mask in range(1, 1 << len(cards))
            if h.mask_levels[mask] <= h.max_level
        ]
        assert sorted(in_scope, key=lambda mask: h.node_rank[mask]) == walked
        assert h.node_rank[0] == (1 << len(cards)) - 1  # the root comes last


class TestIncrementalUpdates:
    def test_region_leaf_counts_shape_and_totals(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        pattern = Pattern([("a", 0)])
        pos, neg = h.region_leaf_counts(biased_dataset, pattern)
        assert pos.shape == neg.shape == (2,)  # free attr b has 2 values
        assert (int(pos.sum()), int(neg.sum())) == h.counts_of(pattern)

    def test_duplicate_rows_delta_equals_rebuild(self, biased_dataset):
        rng = np.random.default_rng(7)
        h = Hierarchy(biased_dataset)
        pattern = Pattern([("a", 0), ("b", 0)])
        idx = np.flatnonzero(pattern.mask(biased_dataset))
        before = h.region_leaf_counts(biased_dataset, pattern)
        edited = biased_dataset.duplicate_rows(rng.choice(idx, size=10))
        after = h.region_leaf_counts(edited, pattern)
        h.apply_count_delta(pattern, after[0] - before[0], after[1] - before[1])
        _assert_hierarchies_equal(h, Hierarchy(edited))

    def test_drop_and_flip_deltas_equal_rebuild(self, biased_dataset):
        rng = np.random.default_rng(13)
        h = Hierarchy(biased_dataset)
        current = biased_dataset
        for pattern in (Pattern([("b", 1)]), Pattern([("a", 2), ("b", 0)])):
            idx = np.flatnonzero(pattern.mask(current))
            before = h.region_leaf_counts(current, pattern)
            y = current.y.copy()
            y[rng.choice(idx, size=5, replace=False)] ^= 1
            current = current.with_labels(y).drop(
                rng.choice(idx, size=3, replace=False)
            )
            after = h.region_leaf_counts(current, pattern)
            h.apply_count_delta(
                pattern, after[0] - before[0], after[1] - before[1]
            )
            _assert_hierarchies_equal(h, Hierarchy(current))

    def test_zero_delta_is_noop(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        pattern = Pattern([("a", 1)])
        pos, neg = h.region_leaf_counts(biased_dataset, pattern)
        h.apply_count_delta(pattern, pos - pos, neg - neg)
        _assert_hierarchies_equal(h, Hierarchy(biased_dataset))

    def test_foreign_attribute_rejected(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        with pytest.raises(PatternError):
            h.apply_count_delta(Pattern([("zz", 0)]), np.zeros(2), np.zeros(2))
        with pytest.raises(PatternError):
            h.region_leaf_counts(biased_dataset, Pattern([("zz", 0)]))


def _vectorized_per_node(hierarchy, tau_c, k):
    """Every node's vectorized biased regions, bottom-up (the remedy's walk)."""
    from repro.core.ibs import METHOD_VECTORIZED, node_biased_reports

    return [
        report
        for node in hierarchy.iter_nodes_bottom_up()
        for report in node_biased_reports(
            hierarchy, node, tau_c, k=k, method=METHOD_VECTORIZED
        )
    ]


class TestMaxCellSizeInvalidation:
    """A delta that empties or fills a branch must not be mis-pruned.

    The vectorized per-node step (``node_biased_reports``) skips whole nodes
    via the cached ``max_cell_size``; ``apply_count_delta`` must invalidate
    that cache on every node, or a branch a delta emptied (or grew past
    ``k``) keeps its stale prune decision on the next vectorized pass.
    """

    def test_emptied_branch_matches_fresh_rebuild(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        _vectorized_per_node(h, 0.2, k=10)  # populate every node's cache
        # Drop every row of the planted skew cell (a=0, b=0).
        pattern = Pattern([("a", 0), ("b", 0)])
        idx = np.flatnonzero(pattern.mask(biased_dataset))
        edited = biased_dataset.drop(idx)
        before = h.region_leaf_counts(biased_dataset, pattern)
        h.apply_count_delta(pattern, -before[0], -before[1])
        stale = _vectorized_per_node(h, 0.2, k=10)
        fresh = _vectorized_per_node(Hierarchy(edited), 0.2, k=10)
        assert stale == fresh

    def test_filled_branch_is_rescanned_not_skipped(self):
        from repro.data import schema_from_domains
        from repro.data.dataset import Dataset

        # Start so small that every node caches max_cell_size <= k and the
        # per-node step skips the whole lattice.
        schema = schema_from_domains({"a": ("a0", "a1"), "b": ("b0", "b1")})
        tiny = Dataset(
            schema,
            {"a": np.array([0, 1]), "b": np.array([0, 1])},
            np.array([1, 0]),
            protected=("a", "b"),
        )
        h = Hierarchy(tiny)
        assert _vectorized_per_node(h, 0.1, k=3) == []
        # Grow cell (a=0, b=0) well past k with all-positive rows; every
        # ancestor node's cached bound is now stale-low.
        grown = tiny.append_rows(
            Dataset(
                schema,
                {"a": np.zeros(8, dtype=int), "b": np.zeros(8, dtype=int)},
                np.ones(8, dtype=int),
                protected=("a", "b"),
            )
        )
        pattern = Pattern([("a", 0), ("b", 0)])
        after = h.region_leaf_counts(grown, pattern)
        before = h.region_leaf_counts(tiny, pattern)
        h.apply_count_delta(pattern, after[0] - before[0], after[1] - before[1])
        stale = _vectorized_per_node(h, 0.1, k=3)
        fresh = _vectorized_per_node(Hierarchy(grown), 0.1, k=3)
        assert stale == fresh
        assert stale, "the grown all-positive branch must be reported"
