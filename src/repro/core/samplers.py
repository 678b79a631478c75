"""The four pre-processing techniques of §IV-A.

Each sampler transforms the class distribution inside one biased region so
its post-update imbalance score equals the neighbourhood's (Definition 6):

* **oversampling** — duplicate uniformly-chosen minority-class rows,
* **undersampling** — drop uniformly-chosen majority-class rows,
* **preferential sampling** — duplicate top-k borderline minority rows and
  drop top-k borderline majority rows (k per Eq. 1 with ``p_r = -n_r``),
* **massaging** — flip the labels of top-k borderline majority rows.

So a remedy changes only which rows there are and what their labels are.
A sampler builds no dataset and reads no column: :func:`plan_technique`
plans from arrays — the region's row positions, their labels and (for the
two ranked techniques) their ranker scores — a :class:`RowSelection` of
the rows to drop, the rows to duplicate (in append order) and the rows to
relabel, plus the region's :class:`RegionUpdate` audit record, or ``None``
when the region cannot be remedied (undefined target ratio, or no rows
available to move), which Algorithm 2 skips.

:class:`EditedRows` is the one implementation of how selections edit rows.
It keeps an edited dataset as an int64 index of source positions plus int8
labels: :meth:`EditedRows.applied` applies any number of selections
planned on the same rows at once (the remedy loop plans every biased region
of a hierarchy node and edits once per node), and :meth:`EditedRows.build`
makes the :class:`~repro.data.Dataset` once, at the end.
:func:`apply_technique` plans and applies one region through both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.ibs import RegionReport
from repro.core.imbalance import is_undefined
from repro.core.pattern import Pattern
from repro.core.ranker import BorderlineRanker
from repro.data.dataset import Dataset
from repro.errors import RemedyError

OVERSAMPLING = "oversampling"
UNDERSAMPLING = "undersampling"
PREFERENTIAL = "preferential"
MASSAGING = "massaging"
TECHNIQUES = (OVERSAMPLING, UNDERSAMPLING, PREFERENTIAL, MASSAGING)
#: The techniques that rank rows with a :class:`BorderlineRanker`.
RANKED_TECHNIQUES = (PREFERENTIAL, MASSAGING)

# Oversampling toward a near-zero target ratio would add unbounded rows; cap
# additions at this multiple of the region size (documented deviation — the
# paper's Eq. 1 has no finite solution when ratio_rn = 0 and |r+| > 0).
MAX_GROWTH_FACTOR = 10


def _no_rows() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class RegionUpdate:
    """Audit record of one region's remedy."""

    pattern: Pattern
    technique: str
    added_positives: int = 0
    added_negatives: int = 0
    removed_positives: int = 0
    removed_negatives: int = 0
    flipped_to_positive: int = 0
    flipped_to_negative: int = 0

    @property
    def rows_touched(self) -> int:
        return (
            self.added_positives
            + self.added_negatives
            + self.removed_positives
            + self.removed_negatives
            + self.flipped_to_positive
            + self.flipped_to_negative
        )


@dataclass(frozen=True, eq=False)
class RowSelection:
    """One region's planned edit, as positions in the rows it was planned
    on: ``drop`` rows are removed, copies of ``duplicate`` rows are appended
    in that order, and ``relabel`` rows take the opposite label."""

    update: RegionUpdate
    drop: np.ndarray = field(default_factory=_no_rows)
    duplicate: np.ndarray = field(default_factory=_no_rows)
    relabel: np.ndarray = field(default_factory=_no_rows)

    def at(self, rows: np.ndarray) -> "RowSelection":
        """This selection, planned on indices into ``rows``, as ``rows``' entries."""
        return RowSelection(
            self.update, rows[self.drop], rows[self.duplicate], rows[self.relabel]
        )


def _rounded(value: float) -> int:
    return int(round(value))


def _plan_oversampling(
    report: RegionReport,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    skew_positive: bool,
    rng: np.random.Generator,
) -> RowSelection | None:
    """Duplicate minority-class rows until the region hits the target ratio."""
    target = report.neighbor_ratio
    pos, neg = len(pos_idx), len(neg_idx)
    size = pos + neg
    if skew_positive:
        # Need negatives: |r+| / (|r-| + n) = target.
        if target > 0:
            n_add = _rounded(pos / target - neg)
        else:
            n_add = MAX_GROWTH_FACTOR * size
        n_add = min(max(n_add, 0), MAX_GROWTH_FACTOR * size)
        if n_add == 0 or neg == 0:
            return None  # nothing to duplicate from
        chosen = rng.choice(neg_idx, size=n_add, replace=True)
        update = RegionUpdate(report.pattern, OVERSAMPLING, added_negatives=n_add)
    else:
        # Need positives: (|r+| + p) / |r-| = target.
        n_add = _rounded(target * neg - pos)
        n_add = min(max(n_add, 0), MAX_GROWTH_FACTOR * size)
        if n_add == 0 or pos == 0:
            return None
        chosen = rng.choice(pos_idx, size=n_add, replace=True)
        update = RegionUpdate(report.pattern, OVERSAMPLING, added_positives=n_add)
    return RowSelection(update, duplicate=chosen)


def _plan_undersampling(
    report: RegionReport,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    skew_positive: bool,
    rng: np.random.Generator,
) -> RowSelection | None:
    """Drop majority-class rows until the region hits the target ratio."""
    target = report.neighbor_ratio
    pos, neg = len(pos_idx), len(neg_idx)
    if skew_positive:
        # Remove positives: (|r+| - p) / |r-| = target.
        n_rm = _rounded(pos - target * neg)
        n_rm = min(max(n_rm, 0), pos)
        if n_rm == 0:
            return None
        chosen = rng.choice(pos_idx, size=n_rm, replace=False)
        update = RegionUpdate(report.pattern, UNDERSAMPLING, removed_positives=n_rm)
    else:
        # Remove negatives: |r+| / (|r-| - n) = target.
        n_rm = _rounded(neg - pos / target) if target > 0 else 0
        n_rm = min(max(n_rm, 0), neg)
        if n_rm == 0:
            return None
        chosen = rng.choice(neg_idx, size=n_rm, replace=False)
        update = RegionUpdate(report.pattern, UNDERSAMPLING, removed_negatives=n_rm)
    return RowSelection(update, drop=chosen)


def _preferential_k(pos: int, neg: int, target: float, skew_positive: bool) -> int:
    """Solve Eq. 1 with |p_r| = |n_r| = k for the combined move count."""
    if skew_positive:
        # (pos - k) / (neg + k) = target  =>  k = (pos - target*neg)/(1+target)
        k = (pos - target * neg) / (1.0 + target)
    else:
        # (pos + k) / (neg - k) = target  =>  k = (target*neg - pos)/(1+target)
        k = (target * neg - pos) / (1.0 + target)
    return max(_rounded(k), 0)


def _plan_preferential(
    report: RegionReport,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    skew_positive: bool,
    scores: np.ndarray,
) -> RowSelection | None:
    """Swap k borderline majority rows for k duplicated borderline minority rows."""
    k = _preferential_k(len(pos_idx), len(neg_idx), report.neighbor_ratio, skew_positive)
    if k == 0:
        return None
    if skew_positive:
        remove = BorderlineRanker.borderline_positives(scores, pos_idx, k)
        duplicate = BorderlineRanker.borderline_negatives(
            scores, neg_idx, k, cycle=True
        )
        update = RegionUpdate(
            report.pattern,
            PREFERENTIAL,
            removed_positives=int(remove.size),
            added_negatives=int(duplicate.size),
        )
    else:
        remove = BorderlineRanker.borderline_negatives(scores, neg_idx, k)
        duplicate = BorderlineRanker.borderline_positives(
            scores, pos_idx, k, cycle=True
        )
        update = RegionUpdate(
            report.pattern,
            PREFERENTIAL,
            removed_negatives=int(remove.size),
            added_positives=int(duplicate.size),
        )
    if remove.size == 0 and duplicate.size == 0:
        return None
    return RowSelection(update, drop=remove, duplicate=duplicate)


def _plan_massaging(
    report: RegionReport,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    skew_positive: bool,
    scores: np.ndarray,
) -> RowSelection | None:
    """Flip the labels of k borderline majority-class rows."""
    pos, neg = len(pos_idx), len(neg_idx)
    k = _preferential_k(pos, neg, report.neighbor_ratio, skew_positive)
    if k == 0:
        return None
    if skew_positive:
        flip = BorderlineRanker.borderline_positives(scores, pos_idx, min(k, pos))
        update = RegionUpdate(
            report.pattern, MASSAGING, flipped_to_negative=int(flip.size)
        )
    else:
        flip = BorderlineRanker.borderline_negatives(scores, neg_idx, min(k, neg))
        update = RegionUpdate(
            report.pattern, MASSAGING, flipped_to_positive=int(flip.size)
        )
    if flip.size == 0:
        return None
    return RowSelection(update, relabel=flip)


def plan_technique(
    technique: str,
    report: RegionReport,
    rows: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    scores: np.ndarray | None = None,
) -> RowSelection | None:
    """Plan one region's edit (the ``alg`` input of Algorithm 2).

    ``rows`` are the region's row positions in ascending order, ``labels``
    their labels, and ``scores`` their ranker scores, P(y=1 | x) per row
    (required by :data:`RANKED_TECHNIQUES`).  The selection, as entries of
    ``rows``, depends only on these arrays and ``rng``: the planners pick
    by index into the region, so ranker ties break on row position.
    """
    if technique not in TECHNIQUES:
        raise RemedyError(f"unknown technique {technique!r}; choose from {TECHNIQUES}")
    if technique in RANKED_TECHNIQUES and scores is None:
        raise RemedyError(f"technique {technique!r} requires a fitted ranker")
    target = report.neighbor_ratio
    if is_undefined(target):
        return None
    positive = labels == 1
    pos_idx, neg_idx = np.flatnonzero(positive), np.flatnonzero(~positive)
    skew_positive = is_undefined(report.ratio) or report.ratio > target
    if technique == OVERSAMPLING:
        selection = _plan_oversampling(report, pos_idx, neg_idx, skew_positive, rng)
    elif technique == UNDERSAMPLING:
        selection = _plan_undersampling(report, pos_idx, neg_idx, skew_positive, rng)
    elif technique == PREFERENTIAL:
        selection = _plan_preferential(report, pos_idx, neg_idx, skew_positive, scores)
    else:
        selection = _plan_massaging(report, pos_idx, neg_idx, skew_positive, scores)
    return None if selection is None else selection.at(rows)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else _no_rows()


@dataclass(frozen=True, eq=False)
class EditedRows:
    """A source dataset's rows after remedy edits, with no column copied.

    ``origin`` holds each current row's position in the source and
    ``labels`` its label.  The first ``n_kept`` entries of ``origin`` are the
    surviving source rows in ascending order, since drops keep row order;
    every duplicate follows them, in the order it was appended.
    """

    origin: np.ndarray
    n_kept: int
    labels: np.ndarray

    @classmethod
    def of(cls, dataset: Dataset) -> "EditedRows":
        """``dataset``'s own rows, unedited."""
        n = dataset.n_rows
        return cls(np.arange(n, dtype=np.int64), n, dataset.y)

    @property
    def n_rows(self) -> int:
        return self.origin.size

    def applied(self, selections: Sequence[RowSelection]) -> "EditedRows":
        """These rows with every selection planned on them applied at once.

        The result holds the kept rows in their order, then each selection's
        duplicates in selection order, with relabelled rows under their new
        labels.  For selections planned on disjoint regions this is the row
        order of applying them one at a time.
        """
        relabel = _joined([s.relabel for s in selections])
        drop = _joined([s.drop for s in selections])
        duplicate = _joined([s.duplicate for s in selections])
        labels = self.labels
        if relabel.size:
            labels = labels.copy()
            labels[relabel] ^= 1
        if not (drop.size or duplicate.size):
            return EditedRows(self.origin, self.n_kept, labels)
        keep = np.ones(self.n_rows, dtype=bool)
        keep[drop] = False
        index = np.concatenate([np.flatnonzero(keep), duplicate])
        n_kept = int(np.count_nonzero(keep[: self.n_kept]))
        return EditedRows(self.origin[index], n_kept, labels[index])

    def build(self, source: Dataset) -> Dataset:
        """These rows as a dataset over ``source``, the dataset they index.

        ``drop`` of the source rows that did not survive, ``append_rows`` of
        one ``take`` of the duplicates, then ``with_labels``: each step is
        copy-on-write per chunk, so a chunk no edit touched is shared by
        identity (a disk shard stays on disk).
        """
        out = source
        if self.n_kept < source.n_rows:
            gone = np.ones(source.n_rows, dtype=bool)
            gone[self.origin[: self.n_kept]] = False
            out = out.drop(gone)
        if self.n_kept < self.n_rows:
            out = out.append_rows(source.take(self.origin[self.n_kept :]))
        return out.with_labels(self.labels)


def apply_technique(
    technique: str,
    dataset: Dataset,
    report: RegionReport,
    rng: np.random.Generator,
    ranker: BorderlineRanker | None = None,
) -> tuple[Dataset, RegionUpdate] | None:
    """Plan one region's edit and apply it: ``(new dataset, audit record)``.

    The region's rows come from the pattern's mask; a ranked technique
    scores them with ``ranker``.
    """
    rows = np.flatnonzero(report.pattern.mask(dataset))
    scores = None
    if ranker is not None and technique in RANKED_TECHNIQUES:
        scores = ranker.positive_scores(dataset.take(rows))
    selection = plan_technique(technique, report, rows, dataset.y[rows], rng, scores)
    if selection is None:
        return None
    edited = EditedRows.of(dataset).applied([selection])
    return edited.build(dataset), selection.update
