"""Borderline-instance ranker for preferential sampling and massaging.

§IV-A: both techniques "use a ranker, such as a Naïve Bayes model, to
identify the borderline instances, which have a higher probability of
belonging to another class".  The ranker here is the mixed categorical +
Gaussian naive Bayes of :mod:`repro.ml.naive_bayes`, fitted once on the
training data.  A row's score depends only on its own features, which no
technique edits, so the remedy scores every input row once
(:meth:`BorderlineRanker.positive_scores`) and a duplicate carries its
origin's score.  The top-k most borderline positives or negatives of a
region are then ranked by indexing that score column: no rows are copied
and the model is not asked again.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import FitError
from repro.ml.naive_bayes import MixedNaiveBayes


class BorderlineRanker:
    """Ranks rows by their probability of belonging to the opposite class."""

    def __init__(self, alpha: float = 1.0):
        self._model = MixedNaiveBayes(alpha=alpha)
        self._fitted = False

    def fit(self, dataset: Dataset) -> "BorderlineRanker":
        if dataset.n_positive == 0 or dataset.n_negative == 0:
            raise FitError("ranker needs both classes present in the data")
        self._model.fit(dataset)
        self._fitted = True
        return self

    def positive_scores(self, dataset: Dataset) -> np.ndarray:
        """P(y=1 | x) for every row.

        Each row is scored on its own features alone, so scoring a subset
        gives the same bits as indexing the whole dataset's scores
        (``tests/test_ranker.py`` checks this on in-memory and sharded
        tables).
        """
        if not self._fitted:
            raise FitError("BorderlineRanker must be fitted first")
        return self._model.predict_proba(dataset)

    @staticmethod
    def borderline_positives(
        scores: np.ndarray,
        candidate_indices: np.ndarray,
        k: int,
        cycle: bool = False,
    ) -> np.ndarray:
        """Top-``k`` candidates (positive rows) most likely to be negative.

        ``scores`` holds P(y=1 | x) per row (:meth:`positive_scores`) and
        candidates are indices into it; the caller guarantees they are
        positive instances.  Returns at most ``k`` indices, ranked
        most-borderline first; ties break on ascending index for
        determinism.  With ``cycle=True`` and fewer than ``k`` candidates,
        the ranked list repeats cyclically to exactly ``k`` entries — the
        Kamiran–Calders behaviour when a class is too small to supply ``k``
        distinct duplicates (only meaningful for duplication, never for
        removal).
        """
        return _top_k(scores, candidate_indices, k, False, cycle)

    @staticmethod
    def borderline_negatives(
        scores: np.ndarray,
        candidate_indices: np.ndarray,
        k: int,
        cycle: bool = False,
    ) -> np.ndarray:
        """Top-``k`` candidates (negative rows) most likely to be positive."""
        return _top_k(scores, candidate_indices, k, True, cycle)


def _top_k(
    scores: np.ndarray,
    candidate_indices: np.ndarray,
    k: int,
    want_positive: bool,
    cycle: bool,
) -> np.ndarray:
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    if k <= 0 or candidate_indices.size == 0:
        return np.empty(0, dtype=np.int64)
    picked = np.asarray(scores)[candidate_indices]
    keyed = picked if want_positive else 1.0 - picked
    # Sort by descending borderline score, then ascending index.
    order = np.lexsort((candidate_indices, -keyed))
    ranked = candidate_indices[order]
    if k <= ranked.size:
        return ranked[:k]
    if not cycle:
        return ranked
    reps = int(np.ceil(k / ranked.size))
    return np.tile(ranked, reps)[:k]
