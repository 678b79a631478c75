"""Property tests: the three neighbourhood engines are extensionally equal.

Random small datasets over 2–5 attributes of 1–4 values (a one-value
domain gives a cube axis with one value and ALL), with a knob that plants
all-positive cells so the ``ratio = -1`` sentinel path is exercised, must
yield

* identical ``(pos, neg)`` neighbour counts from naive, optimized, and
  vectorized counting for every region, every level 1..d, and
  ``T ∈ {1, √2, 2}``;
* identical IBS report lists from ``identify_ibs`` under every engine, for
  any scope, attribute subset, ``T ∈ {1, √2, 2, 3}`` and ``k`` from 0 to
  past the largest cell;
* an incrementally updated hierarchy equal to a freshly built one after
  each remedy iteration (checked via the ``incremental=False`` oracle and
  by replaying remedy-style edits step by step), its count cube included,
  with the per-node vectorized step still equal to the optimized one.
"""

from __future__ import annotations

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SCOPES,
    Hierarchy,
    Pattern,
    identify_ibs,
    naive_neighbor_counts,
    node_biased_reports,
    optimized_neighbor_counts,
    remedy_dataset,
    vectorized_neighbor_counts,
)
from repro.core.samplers import TECHNIQUES
from repro.data import Dataset, schema_from_domains

pytestmark = pytest.mark.slow

THRESHOLDS = (1.0, sqrt(2.0), 2.0)
#: Budget 1 everywhere, 2 from level 2, up to 4 from level 4, the whole node.
KERNEL_THRESHOLDS = (1.0, sqrt(2.0), 2.0, 3.0)


@st.composite
def engine_datasets(draw):
    """Random categorical dataset; may plant an all-positive cell."""
    n_attrs = draw(st.integers(2, 5))
    cards = [draw(st.integers(1, 4)) for __ in range(n_attrs)]
    n_rows = draw(st.integers(20, 120))
    seed = draw(st.integers(0, 10_000))
    plant_all_positive = draw(st.booleans())
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(n_attrs)]
    schema = schema_from_domains(
        {n: tuple(f"v{j}" for j in range(c)) for n, c in zip(names, cards)}
    )
    columns = {
        name: rng.integers(0, card, size=n_rows)
        for name, card in zip(names, cards)
    }
    y = rng.integers(0, 2, size=n_rows)
    if plant_all_positive:
        # Force every row of cell (0, 0, ...) positive so some region (and
        # its dominators) has an empty negative side -> ratio = -1.
        in_cell = np.ones(n_rows, dtype=bool)
        for name in names:
            in_cell &= columns[name] == 0
        y = np.where(in_cell, 1, y)
    return Dataset(schema, columns, y, protected=tuple(names))


class TestThreeEngineEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(engine_datasets())
    def test_neighbor_counts_agree_all_levels(self, dataset):
        h = Hierarchy(dataset)
        for T in THRESHOLDS:
            for level in h.levels():
                for node in h.nodes_at_level(level):
                    vpos, vneg = vectorized_neighbor_counts(h, node, T)
                    for pattern, __, __n in node.iter_regions(min_size=1):
                        coords = node.coords_of(pattern)
                        vec = (int(vpos[coords]), int(vneg[coords]))
                        opt = optimized_neighbor_counts(h, pattern, T)
                        nai = naive_neighbor_counts(node, pattern, T)
                        assert vec == opt == nai, (pattern, T)

    @settings(max_examples=30, deadline=None)
    @given(engine_datasets(), st.sampled_from(THRESHOLDS), st.integers(0, 5))
    def test_identify_ibs_reports_identical(self, dataset, T, k):
        naive = identify_ibs(dataset, 0.2, T=T, k=k, method="naive")
        opt = identify_ibs(dataset, 0.2, T=T, k=k, method="optimized")
        vec = identify_ibs(dataset, 0.2, T=T, k=k, method="vectorized")
        assert naive == opt == vec

    @settings(max_examples=30, deadline=None)
    @given(engine_datasets(), st.data())
    def test_identify_ibs_any_scope_attrs_T_k(self, dataset, data):
        scope = data.draw(st.sampled_from(SCOPES))
        attrs = data.draw(
            st.lists(st.sampled_from(dataset.protected), min_size=1, unique=True)
        )
        T = data.draw(st.sampled_from(KERNEL_THRESHOLDS))
        k = data.draw(
            st.one_of(st.integers(0, 5), st.integers(0, dataset.n_rows + 1))
        )
        tau_c = data.draw(st.sampled_from((0.0, 0.2, 1.0)))
        naive, opt, vec = (
            identify_ibs(
                dataset, tau_c, T=T, k=k, scope=scope, method=method, attrs=attrs
            )
            for method in ("naive", "optimized", "vectorized")
        )
        assert naive == opt == vec

    @settings(max_examples=20, deadline=None)
    @given(engine_datasets())
    def test_sentinel_regions_agree(self, dataset):
        """Regions with an empty negative side report ratio = -1 identically."""
        opt = identify_ibs(dataset, 0.0, k=0, method="optimized")
        vec = identify_ibs(dataset, 0.0, k=0, method="vectorized")
        assert opt == vec
        sentinels = [r for r in vec if r.ratio == -1.0 or r.neighbor_ratio == -1.0]
        for r in sentinels:
            mirror = next(o for o in opt if o.pattern == r.pattern)
            assert (mirror.ratio, mirror.neighbor_ratio, mirror.difference) == (
                r.ratio,
                r.neighbor_ratio,
                r.difference,
            )


class TestIncrementalHierarchyProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        engine_datasets(),
        st.sampled_from(TECHNIQUES),
        st.integers(0, 100),
    )
    def test_incremental_remedy_equals_rebuild(self, dataset, technique, seed):
        fast = remedy_dataset(
            dataset, 0.15, k=2, technique=technique, seed=seed, incremental=True
        )
        slow = remedy_dataset(
            dataset, 0.15, k=2, technique=technique, seed=seed, incremental=False
        )
        assert fast.updates == slow.updates
        assert np.array_equal(fast.dataset.y, slow.dataset.y)
        for name in dataset.schema.names:
            assert np.array_equal(
                fast.dataset.column(name), slow.dataset.column(name)
            )
        fresh = Hierarchy(fast.dataset)
        for level in range(0, fresh.max_level + 1):
            for node in fresh.nodes_at_level(level):
                kept = fast.hierarchy.node(node.attrs)
                assert np.array_equal(kept.pos, node.pos)
                assert np.array_equal(kept.neg, node.neg)

    @settings(max_examples=15, deadline=None)
    @given(engine_datasets(), st.integers(0, 1_000))
    def test_stepwise_deltas_track_fresh_builds(self, dataset, seed):
        """After every single remedy-style edit the hierarchy stays exact."""
        rng = np.random.default_rng(seed)
        h = Hierarchy(dataset)
        current = dataset
        for __ in range(4):
            current = _edit_and_fold(rng, h, current)
            _assert_matches_fresh_build(h, current)

    @settings(max_examples=25, deadline=None)
    @given(
        engine_datasets(),
        st.integers(0, 1_000),
        st.sampled_from(KERNEL_THRESHOLDS),
        st.integers(0, 12),
    )
    def test_node_reports_after_deltas(self, dataset, seed, T, k):
        """The per-node vectorized step equals the optimized one on a cube
        kept current by deltas, whose ALL slots match a fresh build."""
        rng = np.random.default_rng(seed)
        h = Hierarchy(dataset)
        current = dataset
        for __ in range(int(rng.integers(1, 6))):
            current = _edit_and_fold(rng, h, current)
        _assert_matches_fresh_build(h, current)
        for node in h.iter_nodes_bottom_up():
            vec = node_biased_reports(h, node, 0.2, T=T, k=k, method="vectorized")
            opt = node_biased_reports(h, node, 0.2, T=T, k=k, method="optimized")
            assert vec == opt, node.attrs


def _edit_and_fold(rng, h: Hierarchy, current: Dataset) -> Dataset:
    """One remedy-style edit inside a random pattern, folded into ``h``.

    The pattern fixes a random subset of the attributes (possibly none):
    some of its rows are duplicated, dropped or relabelled, and the leaf
    count change of its slice goes through ``apply_count_delta``.
    """
    names = list(current.protected)
    fixed = [a for a in names if rng.random() < 0.5]
    pattern = Pattern(
        (a, int(rng.integers(0, current.schema[a].cardinality))) for a in fixed
    )
    idx = np.flatnonzero(pattern.mask(current))
    if idx.size == 0:
        return current
    before = h.region_leaf_counts(current, pattern)
    action = int(rng.integers(0, 3))
    if action == 0:
        current = current.duplicate_rows(rng.choice(idx, size=min(3, idx.size)))
    elif action == 1 and idx.size > 1:
        current = current.drop(rng.choice(idx, size=1, replace=False))
    else:
        y = current.y.copy()
        y[rng.choice(idx, size=1)] ^= 1
        current = current.with_labels(y)
    after = h.region_leaf_counts(current, pattern)
    h.apply_count_delta(pattern, after[0] - before[0], after[1] - before[1])
    return current


def _assert_matches_fresh_build(h: Hierarchy, current: Dataset) -> None:
    fresh = Hierarchy(current)
    assert np.array_equal(h.cube_pos, fresh.cube_pos)
    assert np.array_equal(h.cube_neg, fresh.cube_neg)
    for level in range(0, fresh.max_level + 1):
        for node in fresh.nodes_at_level(level):
            kept = h.node(node.attrs)
            assert np.array_equal(kept.pos, node.pos), node.attrs
            assert np.array_equal(kept.neg, node.neg), node.attrs
