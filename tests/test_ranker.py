"""Unit tests for repro.core.ranker (borderline-instance ranking)."""

import numpy as np
import pytest

from repro.core import BorderlineRanker
from repro.data.store import ShardedDataset, iter_chunks, write_store
from repro.data.synth.adult import load_adult
from repro.errors import FitError


class TestRanker:
    def test_fit_requires_both_classes(self, biased_dataset):
        all_pos = biased_dataset.take(biased_dataset.y == 1)
        with pytest.raises(FitError):
            BorderlineRanker().fit(all_pos)

    def test_unfitted_raises(self, biased_dataset):
        with pytest.raises(FitError):
            BorderlineRanker().positive_scores(biased_dataset)

    def test_scores_shape_and_range(self, biased_dataset):
        ranker = BorderlineRanker().fit(biased_dataset)
        scores = ranker.positive_scores(biased_dataset)
        assert scores.shape == (biased_dataset.n_rows,)
        assert ((0 <= scores) & (scores <= 1)).all()

    def test_scores_correlate_with_labels(self, compas_small):
        ranker = BorderlineRanker().fit(compas_small)
        scores = ranker.positive_scores(compas_small)
        assert scores[compas_small.y == 1].mean() > scores[compas_small.y == 0].mean()

    def test_borderline_positives_ranking(self, biased_dataset):
        ranker = BorderlineRanker().fit(biased_dataset)
        pos_idx = np.flatnonzero(biased_dataset.y == 1)
        scores = ranker.positive_scores(biased_dataset)
        top = ranker.borderline_positives(scores, pos_idx, 5)
        assert len(top) == 5
        # Selected positives must have the *lowest* positive scores.
        threshold = np.sort(scores[pos_idx])[4]
        assert (scores[top] <= threshold + 1e-12).all()

    def test_borderline_negatives_ranking(self, biased_dataset):
        ranker = BorderlineRanker().fit(biased_dataset)
        neg_idx = np.flatnonzero(biased_dataset.y == 0)
        scores = ranker.positive_scores(biased_dataset)
        top = ranker.borderline_negatives(scores, neg_idx, 5)
        threshold = np.sort(scores[neg_idx])[::-1][4]
        assert (scores[top] >= threshold - 1e-12).all()

    def test_k_larger_than_candidates(self, biased_dataset):
        ranker = BorderlineRanker().fit(biased_dataset)
        idx = np.array([0, 1, 2])
        scores = ranker.positive_scores(biased_dataset)
        top = ranker.borderline_positives(scores, idx, 100)
        assert len(top) == 3

    def test_k_zero_or_empty(self, biased_dataset):
        ranker = BorderlineRanker().fit(biased_dataset)
        scores = ranker.positive_scores(biased_dataset)
        assert ranker.borderline_positives(scores, np.array([1, 2]), 0).size == 0
        assert ranker.borderline_positives(scores, np.array([], dtype=int), 5).size == 0

    def test_deterministic(self, biased_dataset):
        ranker = BorderlineRanker().fit(biased_dataset)
        idx = np.flatnonzero(biased_dataset.y == 1)
        scores = ranker.positive_scores(biased_dataset)
        a = ranker.borderline_positives(scores, idx, 7)
        b = ranker.borderline_positives(scores, idx, 7)
        assert np.array_equal(a, b)


class TestScoreColumn:
    """The remedy scores every row once and ranks by indexing that column,
    so a row's score must not depend on the rows scored with it."""

    def test_subset_scores_are_bit_equal(self, tmp_path):
        dataset = load_adult(3000)
        ranker = BorderlineRanker().fit(dataset)
        whole = ranker.positive_scores(dataset).view(np.int64)
        write_store(tmp_path / "adult", iter_chunks(dataset, 700), 700)
        rng = np.random.default_rng(0)
        # 1-17 rows covers every SIMD tail length; the rest span the chunks.
        sizes = [*range(1, 18), 31, 64, 257, 1000, dataset.n_rows]
        with ShardedDataset.open(tmp_path / "adult") as twin:
            assert np.array_equal(ranker.positive_scores(twin).view(np.int64), whole)
            for size in sizes:
                for replace in (False, True, True):
                    subset = rng.choice(dataset.n_rows, size=size, replace=replace)
                    for table in (dataset, twin):
                        got = ranker.positive_scores(table.take(subset))
                        assert np.array_equal(got.view(np.int64), whole[subset]), (
                            size, replace, type(table).__name__,
                        )
