"""Unit tests for repro.core.remedy (Algorithm 2)."""

import hashlib

import numpy as np
import pytest

from repro.core import Hierarchy, identify_ibs, remedy_dataset
from repro.core.samplers import TECHNIQUES
from repro.data.synth.adult import SCALABILITY_PROTECTED, load_adult
from repro.errors import RemedyError


class TestRemedy:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_reduces_ibs(self, biased_dataset, technique):
        before = identify_ibs(biased_dataset, tau_c=0.3, T=1.0, k=10)
        result = remedy_dataset(
            biased_dataset, tau_c=0.3, T=1.0, k=10, technique=technique, seed=1
        )
        after = identify_ibs(result.dataset, tau_c=0.3, T=1.0, k=10)
        assert len(after) < len(before)
        assert result.n_regions_remedied > 0

    def test_input_not_modified(self, biased_dataset):
        y_before = biased_dataset.y.copy()
        n_before = biased_dataset.n_rows
        remedy_dataset(biased_dataset, tau_c=0.1, k=10, technique="massaging")
        assert biased_dataset.n_rows == n_before
        assert np.array_equal(biased_dataset.y, y_before)

    def test_initial_ibs_recorded(self, biased_dataset):
        result = remedy_dataset(biased_dataset, tau_c=0.3, k=10)
        direct = identify_ibs(biased_dataset, tau_c=0.3, k=10)
        assert {r.pattern for r in result.initial_ibs} == {
            r.pattern for r in direct
        }

    def test_deterministic_given_seed(self, biased_dataset):
        a = remedy_dataset(biased_dataset, 0.3, k=10, technique="undersampling", seed=5)
        b = remedy_dataset(biased_dataset, 0.3, k=10, technique="undersampling", seed=5)
        assert a.dataset.n_rows == b.dataset.n_rows
        assert np.array_equal(a.dataset.y, b.dataset.y)
        assert a.updates == b.updates

    def test_unknown_technique(self, biased_dataset):
        with pytest.raises(RemedyError):
            remedy_dataset(biased_dataset, 0.3, technique="alchemy")

    def test_empty_dataset_rejected(self, toy_schema):
        from repro.data import Dataset

        empty = Dataset(
            toy_schema,
            {"age": np.zeros(0, int), "sex": np.zeros(0, int), "score": np.zeros(0)},
            np.zeros(0, int),
            protected=("age", "sex"),
        )
        with pytest.raises(RemedyError):
            remedy_dataset(empty, 0.3)

    def test_huge_tau_is_noop(self, biased_dataset):
        result = remedy_dataset(biased_dataset, tau_c=1e9, k=10, technique="massaging")
        assert result.n_regions_remedied == 0
        assert np.array_equal(result.dataset.y, biased_dataset.y)

    def test_scope_leaf_only_touches_leaf_regions(self, biased_dataset):
        result = remedy_dataset(
            biased_dataset, tau_c=0.3, k=10, scope="leaf", technique="massaging"
        )
        assert all(u.pattern.level == 2 for u in result.updates)

    def test_scope_top_only_touches_level_one(self, biased_dataset):
        result = remedy_dataset(
            biased_dataset, tau_c=0.1, k=10, scope="top", technique="massaging"
        )
        assert all(u.pattern.level == 1 for u in result.updates)

    def test_rows_touched_accounting(self, biased_dataset):
        result = remedy_dataset(biased_dataset, 0.3, k=10, technique="massaging")
        changed = int((result.dataset.y != biased_dataset.y).sum())
        assert changed == result.rows_touched

    def test_massaging_preserves_row_count(self, biased_dataset):
        result = remedy_dataset(biased_dataset, 0.3, k=10, technique="massaging")
        assert result.dataset.n_rows == biased_dataset.n_rows

    def test_custom_attrs(self, biased_dataset):
        result = remedy_dataset(
            biased_dataset, 0.1, k=10, attrs=("a",), technique="undersampling"
        )
        assert all(u.pattern.attrs == {"a"} for u in result.updates)

    def test_remedied_differences_shrink(self, biased_dataset):
        """Post-remedy, the planted region's difference must have shrunk."""
        from repro.core import Pattern, Hierarchy, region_report

        pattern = Pattern([("a", 0), ("b", 0)])
        before_h = Hierarchy(biased_dataset)
        node = before_h.node(("a", "b"))
        before = region_report(
            before_h, node, pattern, *node.counts_of(pattern), 1.0
        )
        result = remedy_dataset(
            biased_dataset, 0.3, T=1.0, k=10, technique="undersampling"
        )
        after_h = Hierarchy(result.dataset)
        node = after_h.node(("a", "b"))
        after = region_report(after_h, node, pattern, *node.counts_of(pattern), 1.0)
        assert after.difference < before.difference


class TestIncrementalHierarchy:
    def test_hierarchy_built_exactly_once(self, biased_dataset, monkeypatch):
        """Acceptance pin: the remedy loop no longer rebuilds per iteration."""
        import repro.core.hierarchy as hierarchy_mod

        calls = []
        original = hierarchy_mod.Hierarchy.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(hierarchy_mod.Hierarchy, "__init__", counting_init)
        result = remedy_dataset(
            biased_dataset, 0.2, k=10, technique="undersampling", seed=0
        )
        assert result.n_regions_remedied >= 2, "needs several dirtying updates"
        assert len(calls) == 1

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_incremental_equals_rebuild_oracle(self, biased_dataset, technique):
        """incremental=True and the from-scratch fallback are byte-identical."""
        fast = remedy_dataset(
            biased_dataset, 0.2, k=10, technique=technique, seed=4,
            incremental=True,
        )
        slow = remedy_dataset(
            biased_dataset, 0.2, k=10, technique=technique, seed=4,
            incremental=False,
        )
        assert fast.updates == slow.updates
        assert fast.initial_ibs == slow.initial_ibs
        assert np.array_equal(fast.dataset.y, slow.dataset.y)
        for name in biased_dataset.schema.names:
            assert np.array_equal(
                fast.dataset.column(name), slow.dataset.column(name)
            )

    def test_result_hierarchy_matches_remedied_dataset(self, biased_dataset):
        result = remedy_dataset(
            biased_dataset, 0.2, k=10, technique="massaging", seed=2
        )
        fresh = Hierarchy(result.dataset)
        for level in range(0, fresh.max_level + 1):
            for node in fresh.nodes_at_level(level):
                kept = result.hierarchy.node(node.attrs)
                assert np.array_equal(kept.pos, node.pos), node.attrs
                assert np.array_equal(kept.neg, node.neg), node.attrs

    def test_prebuilt_hierarchy_accepted(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        result = remedy_dataset(
            biased_dataset, 0.2, k=10, technique="undersampling", seed=0,
            hierarchy=h,
        )
        assert result.hierarchy is h  # updated in place, not replaced


def remedied_digest(dataset) -> str:
    """sha256 of every column's bytes (after its name), then the labels."""
    digest = hashlib.sha256()
    for name in dataset.schema.names:
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(dataset.column(name)).tobytes())
    digest.update(np.ascontiguousarray(dataset.y).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def adult_3000():
    return load_adult(3000).with_protected(SCALABILITY_PROTECTED)


class TestPinnedOutput:
    """Remedy output on 3,000 Adult rows over the 8 Fig. 9 attributes, pinned
    byte for byte to the per-region loop that preceded node plans.

    Any change of row order, rng draws or ranker ties moves a digest.  The
    leaf scope puts ~22 regions in one node; the lattice scope spreads ~45
    over ~30 nodes.  Oversampling is pinned at the leaf only: over the
    lattice its per-region growth (up to 10x) compounds to millions of rows.
    """

    @pytest.mark.parametrize(
        "technique, scope, k, digest, n_updates",
        [
            ("oversampling", "leaf", 5, "b986da81f49bb3dcc5d34c46a3352739dcbb042b6b6644b032687585a2bcd3fe", 21),
            ("undersampling", "leaf", 5, "a533e383a394ac4be3fae93b62d3f426aae12caed1604abc1d835ed6a51c183f", 22),
            ("preferential", "leaf", 5, "386fe7f357ca2a629cdd4ff83189205caea256f09206b11ea85749c9981b739a", 22),
            ("massaging", "leaf", 5, "8b88867354cc963f00bdda33a1106e717a3a6c5846640f82689fd14c67ab9111", 22),
            ("undersampling", "lattice", 30, "ca9432567432fe608ef134b8b346b134c657ee5a06621f035318ce5d9bba0725", 42),
            ("preferential", "lattice", 30, "54027049117cedc2edbd4c4c8d40eb9370de789385ef1eca5303ef3848c50859", 44),
            ("massaging", "lattice", 30, "2a759c922afb81f5cddb7251e3f1e9bc01757f3457623d611e54a7790916d36a", 48),
        ],
    )
    def test_remedy_digest(self, adult_3000, technique, scope, k, digest, n_updates):
        result = remedy_dataset(
            adult_3000, 0.3, k=k, technique=technique, scope=scope,
            method="vectorized", seed=7,
        )
        assert len(result.updates) == n_updates
        assert remedied_digest(result.dataset) == digest
