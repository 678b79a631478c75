"""The four pre-processing techniques of §IV-A.

Each sampler transforms the class distribution inside one biased region so
its post-update imbalance score equals the neighbourhood's (Definition 6):

* **oversampling** — duplicate uniformly-chosen minority-class rows,
* **undersampling** — drop uniformly-chosen majority-class rows,
* **preferential sampling** — duplicate top-k borderline minority rows and
  drop top-k borderline majority rows (k per Eq. 1 with ``p_r = -n_r``),
* **massaging** — flip the labels of top-k borderline majority rows.

A sampler builds no dataset.  It plans a :class:`RowSelection`: the rows
to drop, the rows to duplicate (in append order) and the rows to relabel,
as indices into the dataset it was planned on, plus the region's
:class:`RegionUpdate` audit record — or ``None`` when the region cannot be
remedied (undefined target ratio, or no rows available to move), which
Algorithm 2 skips.  :func:`apply_selections` applies any number of
selections planned on one dataset at once, so the remedy loop plans every
biased region of a hierarchy node and edits the rows once per node;
:func:`apply_technique` plans and applies one region.
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
    """One region's planned edit, as row indices into the dataset it was
    planned on: ``drop`` rows are removed, copies of ``duplicate`` rows are
    appended in that order, and ``relabel`` rows take the opposite label."""

    update: RegionUpdate
    drop: np.ndarray = field(default_factory=_no_rows)
    duplicate: np.ndarray = field(default_factory=_no_rows)
    relabel: np.ndarray = field(default_factory=_no_rows)


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
    dataset: Dataset,
    report: RegionReport,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    skew_positive: bool,
    ranker: BorderlineRanker,
) -> RowSelection | None:
    """Swap k borderline majority rows for k duplicated borderline minority rows."""
    k = _preferential_k(len(pos_idx), len(neg_idx), report.neighbor_ratio, skew_positive)
    if k == 0:
        return None
    if skew_positive:
        remove = ranker.borderline_positives(dataset, pos_idx, k)
        duplicate = ranker.borderline_negatives(dataset, neg_idx, k, cycle=True)
        update = RegionUpdate(
            report.pattern,
            PREFERENTIAL,
            removed_positives=int(remove.size),
            added_negatives=int(duplicate.size),
        )
    else:
        remove = ranker.borderline_negatives(dataset, neg_idx, k)
        duplicate = ranker.borderline_positives(dataset, pos_idx, k, cycle=True)
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
    dataset: Dataset,
    report: RegionReport,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    skew_positive: bool,
    ranker: BorderlineRanker,
) -> RowSelection | None:
    """Flip the labels of k borderline majority-class rows."""
    pos, neg = len(pos_idx), len(neg_idx)
    k = _preferential_k(pos, neg, report.neighbor_ratio, skew_positive)
    if k == 0:
        return None
    if skew_positive:
        flip = ranker.borderline_positives(dataset, pos_idx, min(k, pos))
        update = RegionUpdate(
            report.pattern, MASSAGING, flipped_to_negative=int(flip.size)
        )
    else:
        flip = ranker.borderline_negatives(dataset, neg_idx, min(k, neg))
        update = RegionUpdate(
            report.pattern, MASSAGING, flipped_to_positive=int(flip.size)
        )
    if flip.size == 0:
        return None
    return RowSelection(update, relabel=flip)


def plan_technique(
    technique: str,
    dataset: Dataset,
    report: RegionReport,
    rng: np.random.Generator,
    ranker: BorderlineRanker | None = None,
    rows: np.ndarray | None = None,
) -> RowSelection | None:
    """Plan one region's edit (the ``alg`` input of Algorithm 2).

    ``rows`` are the region's row indices in ``dataset`` in ascending order;
    when omitted they come from the pattern's mask.  The selection depends
    only on those rows, their order, ``rng`` and ``ranker``.
    """
    if technique not in TECHNIQUES:
        raise RemedyError(f"unknown technique {technique!r}; choose from {TECHNIQUES}")
    if technique in (PREFERENTIAL, MASSAGING) and ranker is None:
        raise RemedyError(f"technique {technique!r} requires a fitted ranker")
    target = report.neighbor_ratio
    if is_undefined(target):
        return None
    if rows is None:
        rows = np.flatnonzero(report.pattern.mask(dataset))
    labels = dataset.y[rows]
    pos_idx, neg_idx = rows[labels == 1], rows[labels == 0]
    skew_positive = is_undefined(report.ratio) or report.ratio > target
    if technique == OVERSAMPLING:
        return _plan_oversampling(report, pos_idx, neg_idx, skew_positive, rng)
    if technique == UNDERSAMPLING:
        return _plan_undersampling(report, pos_idx, neg_idx, skew_positive, rng)
    if technique == PREFERENTIAL:
        return _plan_preferential(
            dataset, report, pos_idx, neg_idx, skew_positive, ranker
        )
    return _plan_massaging(dataset, report, pos_idx, neg_idx, skew_positive, ranker)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else _no_rows()


def apply_selections(dataset: Dataset, selections: Sequence[RowSelection]) -> Dataset:
    """``dataset`` with every selection planned on it applied at once.

    The result holds the kept rows in their original order, then each
    selection's duplicates in selection order, with relabelled rows under
    their new labels.  For selections planned on disjoint regions this is
    the row order of applying them one at a time.
    """
    relabel = _joined([s.relabel for s in selections])
    drop = _joined([s.drop for s in selections])
    duplicate = _joined([s.duplicate for s in selections])
    if relabel.size:
        y = dataset.y.copy()
        y[relabel] ^= 1
        dataset = dataset.with_labels(y)
    out = dataset.drop(drop) if drop.size else dataset
    return out.append_rows(dataset.take(duplicate)) if duplicate.size else out


def apply_technique(
    technique: str,
    dataset: Dataset,
    report: RegionReport,
    rng: np.random.Generator,
    ranker: BorderlineRanker | None = None,
) -> tuple[Dataset, RegionUpdate] | None:
    """Plan one region's edit and apply it: ``(new dataset, audit record)``."""
    selection = plan_technique(technique, dataset, report, rng, ranker)
    if selection is None:
        return None
    return apply_selections(dataset, [selection]), selection.update
