"""Unit tests for repro.core.ibs (Problem 1 / Algorithm 1)."""

import hashlib
import json
import math

import pytest

from repro.core import (
    METHODS,
    SCOPES,
    Hierarchy,
    Pattern,
    dominated_biased_regions,
    ibs_patterns,
    identify_ibs,
    node_biased_reports,
    scope_levels,
)
from repro.data.synth import load_adult, load_compas, load_lawschool
from repro.data.synth.adult import SCALABILITY_PROTECTED
from repro.errors import PatternError
from repro.obs import Tracer, tracing


class TestIdentify:
    def test_planted_region_found(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, tau_c=0.5, T=1.0, k=10)
        assert Pattern([("a", 0), ("b", 0)]) in ibs_patterns(ibs)

    def test_reports_are_consistent(self, biased_dataset):
        for report in identify_ibs(biased_dataset, tau_c=0.1, T=1.0, k=10):
            assert report.size == report.pos + report.neg
            assert report.difference > 0.1
            if report.ratio != -1.0 and report.neighbor_ratio != -1.0:
                assert report.difference == pytest.approx(
                    abs(report.ratio - report.neighbor_ratio)
                )

    def test_size_filter_excludes_small_regions(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, tau_c=0.0, T=1.0, k=40)
        assert all(r.size > 40 for r in ibs)

    def test_huge_k_empty_result(self, biased_dataset):
        assert identify_ibs(biased_dataset, tau_c=0.0, k=10_000) == []

    def test_huge_tau_empty_result(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, tau_c=1e9, T=1.0, k=10)
        assert all(math.isinf(r.difference) for r in ibs)

    def test_methods_agree(self, biased_dataset):
        naive = identify_ibs(biased_dataset, 0.2, k=10, method="naive")
        opt = identify_ibs(biased_dataset, 0.2, k=10, method="optimized")
        vec = identify_ibs(biased_dataset, 0.2, k=10, method="vectorized")
        assert ibs_patterns(naive) == ibs_patterns(opt)
        assert opt == vec  # full report lists, not just pattern sets

    def test_vectorized_is_registered_method(self):
        assert "vectorized" in METHODS

    @pytest.mark.parametrize(
        "loader,seed", [(load_adult, 5), (load_compas, 11), (load_lawschool, 23)]
    )
    def test_vectorized_identical_reports_on_synthetic_datasets(
        self, loader, seed
    ):
        """Acceptance pin: byte-identical report lists on all three datasets."""
        dataset = loader(2_500, seed=seed)
        for T in (1.0, 1.5):
            opt = identify_ibs(dataset, 0.3, T=T, k=15, method="optimized")
            vec = identify_ibs(dataset, 0.3, T=T, k=15, method="vectorized")
            assert opt == vec
            assert vec, "pin is vacuous if no region is found"

    @pytest.mark.slow
    @pytest.mark.parametrize("depth", (9, 10, 11, 12))
    def test_engines_agree_at_deep_lattice_depth(self, depth):
        """All three engines return identical reports at depth 9-12.

        Binary protected attributes keep the naive engine tractable while
        the lattice (``3^depth`` regions, one count-cube cell each) has the
        vectorized engine score candidates spread over ``2^depth`` nodes.
        """
        from repro.data.synth.generic import generate, make_scalability_config

        data = generate(
            make_scalability_config(
                n_rows=300, n_protected=depth, cardinality=2, seed=7
            )
        )
        naive = identify_ibs(data, 0.4, k=10, method="naive")
        opt = identify_ibs(data, 0.4, k=10, method="optimized")
        vec = identify_ibs(data, 0.4, k=10, method="vectorized")
        assert naive == opt
        assert opt == vec  # byte-identical report lists at every depth
        assert vec, "pin is vacuous if no region is found"

    def test_node_biased_reports_matches_scalar_path(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        for level in h.levels():
            for node in h.nodes_at_level(level):
                scalar = node_biased_reports(
                    h, node, 0.2, k=5, method="optimized", dataset=biased_dataset
                )
                vector = node_biased_reports(h, node, 0.2, k=5, method="vectorized")
                assert scalar == vector

    def test_unknown_method_rejected(self, biased_dataset):
        with pytest.raises(PatternError):
            identify_ibs(biased_dataset, 0.2, method="quantum")

    def test_prebuilt_hierarchy_reused(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        a = identify_ibs(biased_dataset, 0.2, k=10, hierarchy=h)
        b = identify_ibs(biased_dataset, 0.2, k=10)
        assert ibs_patterns(a) == ibs_patterns(b)

    def test_custom_attrs_override_protected(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, 0.0, k=10, attrs=("a",))
        assert all(r.pattern.attrs == {"a"} for r in ibs)

    def test_sorted_within_level_by_difference(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, 0.0, T=1.0, k=10)
        by_level: dict[int, list[float]] = {}
        for r in ibs:
            by_level.setdefault(r.pattern.level, []).append(r.difference)
        for diffs in by_level.values():
            assert diffs == sorted(diffs, reverse=True)


class TestScopes:
    def test_scope_levels(self, biased_dataset):
        h = Hierarchy(biased_dataset)
        assert scope_levels(h, "lattice") == [2, 1]
        assert scope_levels(h, "leaf") == [2]
        assert scope_levels(h, "top") == [1]
        with pytest.raises(PatternError):
            scope_levels(h, "middle")

    def test_leaf_scope_only_leaf_patterns(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, 0.0, k=10, scope="leaf")
        assert all(r.pattern.level == 2 for r in ibs)

    def test_top_scope_only_level_one(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, 0.0, k=10, scope="top")
        assert all(r.pattern.level == 1 for r in ibs)

    def test_lattice_is_union_of_leaf_and_top(self, biased_dataset):
        lattice = ibs_patterns(identify_ibs(biased_dataset, 0.1, k=10))
        leaf = ibs_patterns(identify_ibs(biased_dataset, 0.1, k=10, scope="leaf"))
        top = ibs_patterns(identify_ibs(biased_dataset, 0.1, k=10, scope="top"))
        assert leaf | top == lattice  # two-level lattice here


class TestSkewAndDominance:
    def test_skew_direction(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, 0.3, T=1.0, k=10)
        planted = next(
            r for r in ibs if r.pattern == Pattern([("a", 0), ("b", 0)])
        )
        assert planted.skew_direction == +1  # excess positives

    def test_dominated_biased_regions(self, biased_dataset):
        ibs = identify_ibs(biased_dataset, 0.3, T=1.0, k=10)
        subgroup = Pattern([("a", 0)])
        dominated = dominated_biased_regions(subgroup, ibs)
        assert all(r.pattern.is_dominated_by(subgroup) for r in dominated)
        assert any(r.pattern == Pattern([("a", 0), ("b", 0)]) for r in dominated)


def reports_digest(reports) -> str:
    """sha256 of a report list as the benchmark digests it (floats via repr)."""
    payload = [
        [
            list(r.pattern.items), r.pos, r.neg, repr(r.ratio),
            r.neighbor_pos, r.neighbor_neg, repr(r.neighbor_ratio),
            repr(r.difference),
        ]
        for r in reports
    ]
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def adult8_3000():
    return load_adult(3000).with_protected(SCALABILITY_PROTECTED)


class TestPinnedReports:
    """Vectorized report lists on 3,000 Adult rows over the 8 Fig. 9
    attributes, pinned byte for byte to the whole-node engine that preceded
    the count-cube kernel.  The settings cover Hamming budget 1 (T = 1, 1.5),
    a budget that varies by level (T = 2) and the whole node (T = 3), k = 0
    (every populated cell a candidate), and the three scopes."""

    @pytest.mark.parametrize(
        "T, k, tau_c, scope, n_reports, digest",
        [
            (1.0, 30, 0.3, "lattice", 403, "25cb5de37eb1545d0163d1fcd784744cc271b11ae768be7ea6a59b56e5407356"),
            (2.0, 30, 0.3, "lattice", 663, "469d4d36ba54ccab4cfd7b9595d01526e30d0cec4eb94aec425262ec4736f225"),
            (1.0, 5, 0.1, "lattice", 12355, "00bebe7f444e46a265b8f6d94dec7edad5cb11ce8e02cede58effbcea0fab8ff"),
            (1.5, 10, 0.5, "lattice", 939, "40755aa7abc47d6f4a6b4c4a53b2f434824bbebc8342c8c57141e05848dcc0f8"),
            (3.0, 0, 0.2, "lattice", 55599, "2e892d456e86c0081383f1b31efc8e2c4242c5498c8ba6b24ad206eda29548bd"),
            (1.0, 5, 0.1, "leaf", 45, "d54ded19909b50820f102eacc9673ca976e5c9a395e6ced0aba7c76607ba600d"),
            (1.0, 5, 0.1, "top", 18, "9ebe0f64e4d80463f1c36c9c8ef1995a5c2b95f4efbcebe773702ce1c1e67d6b"),
        ],
    )
    def test_reports_digest(self, adult8_3000, T, k, tau_c, scope, n_reports, digest):
        reports = identify_ibs(
            adult8_3000, tau_c, T=T, k=k, scope=scope, method="vectorized"
        )
        assert len(reports) == n_reports
        assert reports_digest(reports) == digest


class TestNegativeCounts:
    """A corrupt (negative) count on a scored region raises the same
    ``imbalance_score`` error under every engine, never a report."""

    @pytest.fixture
    def corrupt(self):
        data = load_adult(3000, seed=1).with_protected(("age", "race", "gender"))
        hierarchy = Hierarchy(data)
        node = hierarchy.nodes_at_level(1)[0]
        node.neg[0] = -5  # Pattern(age=0): 87 positives
        return data, hierarchy, node

    @pytest.mark.parametrize("method", METHODS)
    def test_identify_ibs_raises(self, corrupt, method):
        data, hierarchy, _ = corrupt
        with pytest.raises(ValueError, match="counts must be non-negative"):
            identify_ibs(data, 0.1, k=5, method=method, hierarchy=hierarchy)

    @pytest.mark.parametrize("method", METHODS)
    def test_node_biased_reports_raises(self, corrupt, method):
        data, hierarchy, node = corrupt
        with pytest.raises(ValueError, match=r"counts must be non-negative, got \(87, -5\)"):
            node_biased_reports(
                hierarchy, node, 0.1, k=5, method=method, dataset=data
            )


class TestScanCounters:
    """``ibs.regions_scanned`` counts the candidate regions scored — those
    with ``|r| > k`` at an in-scope level — and ``ibs.nodes_scanned`` the
    nodes holding one, under every engine."""

    @pytest.mark.parametrize("scope", SCOPES)
    def test_counters_are_candidates_under_every_engine(self, scope):
        data = load_adult(1000, seed=2).with_protected(("age", "race", "gender"))
        k = 10
        hierarchy = Hierarchy(data)
        sizes = [
            int(((node.pos + node.neg) > k).sum())
            for level in scope_levels(hierarchy, scope)
            for node in hierarchy.nodes_at_level(level)
        ]
        want = {
            "ibs.nodes_scanned": sum(1 for n in sizes if n),
            "ibs.regions_scanned": sum(sizes),
        }
        for method in METHODS:
            tracer = Tracer()
            with tracing(tracer):
                identify_ibs(data, 0.2, k=k, scope=scope, method=method)
            totals = tracer.metric_totals()
            assert {name: totals[name] for name in want} == want, method
