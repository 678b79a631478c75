"""Dataset remedy (paper Problem 2 / Algorithm 2).

Walks the hierarchy node by node (bottom-up, as Algorithm 1 does), at each
node re-identifies the biased regions *on the current, partially remedied
dataset*, and applies the chosen pre-processing technique to each.  The
paper notes this is iterative because "adjusting the class distribution for
specific regions will impact the imbalance score of all regions that either
dominate or are dominated by them".

A remedy changes only which rows there are and what their labels are, so
the loop edits no dataset.  It keeps the current rows as an
:class:`~repro.core.samplers.EditedRows`: an int64 index of input positions
(surviving input rows first, duplicates after them) and int8 labels.  The
ranker is fitted once and scores every input row once; a duplicate carries
its origin's score, since no technique edits features.  The remedied
:class:`~repro.data.Dataset` is built once, at the end, copy-on-write per
chunk.

Each node is remedied as one edit plan.  The cells of a node are disjoint,
so a sibling's edit never adds, removes or reorders a region's rows: drops
keep row order and duplicates go after every original row.  Every biased
region of the node is therefore planned against the rows as they stood
when the node started (one ``joint_codes`` pass over the input, gathered
through the index, finds each region's rows), in ``(-difference, pattern)``
order so the rng advances as it would region by region.  The plans are
applied at once — the kept rows in order, then each region's duplicates in
region order, relabels in place — which is the row order of applying them
one at a time.  Rather than rebuilding the hierarchy after the edit, the
loop keeps **one** hierarchy current: the node's exact leaf-granular count
change (−1 per dropped row, +1 per duplicate, old label −1 and new label +1
per relabel), read from the input's leaf codes through the index, is folded
into every node once with
:meth:`repro.core.hierarchy.Hierarchy.apply_count_delta` (see
``docs/performance.md``).  Two readers need the rows as a dataset
mid-loop, the naive engine and the ``incremental=False`` oracle; they get
it from :meth:`~repro.core.samplers.EditedRows.build`, once per node that
follows an edit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.core.ibs import (
    METHOD_NAIVE,
    METHOD_OPTIMIZED,
    RegionReport,
    SCOPE_LATTICE,
    identify_ibs,
    node_biased_reports,
    scope_levels,
)
from repro.core.pattern import Pattern
from repro.core.ranker import BorderlineRanker
from repro.core.samplers import (
    PREFERENTIAL,
    RANKED_TECHNIQUES,
    TECHNIQUES,
    EditedRows,
    RegionUpdate,
    RowSelection,
    apply_technique,  # unused here; bench/layers.py hooks it by this name
    plan_technique,
)
from repro.data.dataset import Dataset
from repro.errors import RemedyError
from repro.obs import trace as obs


@dataclass(frozen=True)
class RemedyResult:
    """Outcome of one remedy run."""

    dataset: Dataset
    updates: tuple[RegionUpdate, ...] = field(default_factory=tuple)
    initial_ibs: tuple[RegionReport, ...] = field(default_factory=tuple)
    #: The incrementally maintained hierarchy, equal to one freshly built
    #: from ``dataset``; callers (e.g. the convergence loop) can pass it
    #: back into ``identify_ibs``/``remedy_dataset`` to skip a rebuild.
    hierarchy: Hierarchy | None = None

    @property
    def n_regions_remedied(self) -> int:
        return len(self.updates)

    @property
    def rows_touched(self) -> int:
        return sum(u.rows_touched for u in self.updates)


def remedy_dataset(
    dataset: Dataset,
    tau_c: float,
    T: float = 1.0,
    k: int = 30,
    technique: str = PREFERENTIAL,
    scope: str = SCOPE_LATTICE,
    method: str = METHOD_OPTIMIZED,
    attrs: Sequence[str] | None = None,
    seed: int = 0,
    hierarchy: Hierarchy | None = None,
    incremental: bool = True,
) -> RemedyResult:
    """Algorithm 2: remedy every biased region of the dataset.

    Parameters mirror :func:`repro.core.ibs.identify_ibs`; ``technique`` is
    one of :data:`repro.core.samplers.TECHNIQUES` and ``seed`` drives the
    random row selection of the sampling techniques.  ``hierarchy`` may be
    a pre-built hierarchy over ``dataset`` (e.g. from a previous pass's
    :attr:`RemedyResult.hierarchy`) — it is updated **in place** as regions
    are remedied; ``incremental=False`` falls back to
    rebuilding the hierarchy from scratch after dirtying updates — it
    produces identical results and exists as an equivalence oracle for
    tests and debugging.

    Returns a :class:`RemedyResult` whose ``dataset`` is the remedied copy
    (the input is never modified), ``updates`` the per-region audit records,
    and ``initial_ibs`` the IBS found on the *original* data for reference.
    """
    if technique not in TECHNIQUES:
        raise RemedyError(f"unknown technique {technique!r}; choose from {TECHNIQUES}")
    if dataset.n_rows == 0:
        raise RemedyError("cannot remedy an empty dataset")
    with obs.span(
        "remedy_dataset",
        technique=technique,
        method=method,
        scope=scope,
        tau_c=tau_c,
        incremental=incremental,
    ) as remedy_span:
        rng = np.random.default_rng(seed)

        scores: np.ndarray | None = None
        # In a one-class dataset every region scores as its neighbours do,
        # so no region is biased and there is nothing to rank (and no
        # ranker can be fitted on one class).
        if technique in RANKED_TECHNIQUES and dataset.n_positive and dataset.n_negative:
            with obs.span("remedy.fit_ranker"):
                ranker = BorderlineRanker().fit(dataset)
            with obs.span("remedy.score_rows"):
                scores = ranker.positive_scores(dataset)

        if hierarchy is None:
            hierarchy = Hierarchy(dataset, attrs=attrs)
        initial_ibs = tuple(
            identify_ibs(
                dataset, tau_c, T=T, k=k, scope=scope, method=method,
                attrs=attrs, hierarchy=hierarchy,
            )
        )

        node_keys = [
            frozenset(node.attrs)
            for level in scope_levels(hierarchy, scope)
            for node in hierarchy.nodes_at_level(level)
        ]

        rows = EditedRows.of(dataset)
        # ``rows`` as a dataset, or None once an edit has made it stale.
        current: Dataset | None = dataset
        needs_current = method == METHOD_NAIVE or not incremental
        leaf: tuple[np.ndarray, tuple[int, ...]] | None = None
        updates: list[RegionUpdate] = []
        for key in node_keys:
            if current is None and needs_current:
                current = rows.build(dataset)
                if not incremental:
                    hierarchy = _rebuilt(current, attrs)
            node = hierarchy.node(key)
            # Identify this node's biased regions on the current data (line 3).
            biased = node_biased_reports(
                hierarchy, node, tau_c, T=T, k=k, method=method, dataset=current
            )
            if not biased:
                continue
            biased.sort(key=lambda r: (-r.difference, r.pattern.items))
            # Plan every region against the node's starting rows, then apply
            # the plans and fold their count change once (lines 4-6).
            codes, shape = dataset.joint_codes(node.attrs)
            codes = codes[rows.origin]
            selections: list[RowSelection] = []
            for report in biased:
                cell = np.ravel_multi_index(node.coords_of(report.pattern), shape)
                at = np.flatnonzero(codes == cell)
                selection = plan_technique(
                    technique, report, at, rows.labels[at], rng,
                    None if scores is None else scores[rows.origin[at]],
                )
                if selection is None:
                    continue
                selections.append(selection)
                update = selection.update
                updates.append(update)
                obs.count("remedy.regions_remedied")
                obs.count(
                    "remedy.rows_added",
                    update.added_positives + update.added_negatives,
                )
                obs.count(
                    "remedy.rows_removed",
                    update.removed_positives + update.removed_negatives,
                )
                obs.count(
                    "remedy.rows_relabelled",
                    update.flipped_to_positive + update.flipped_to_negative,
                )
            if not selections:
                continue
            if incremental:
                if leaf is None:
                    leaf = dataset.joint_codes(hierarchy.attrs)
                hierarchy.apply_count_delta(
                    Pattern(), *_leaf_count_delta(leaf, rows, selections)
                )
            rows = rows.applied(selections)
            current = None

        if current is None:
            current = rows.build(dataset)
            if not incremental:
                hierarchy = _rebuilt(current, attrs)
        remedy_span.annotate(
            regions_remedied=len(updates),
            rows_touched=sum(u.rows_touched for u in updates),
        )
        return RemedyResult(
            dataset=current,
            updates=tuple(updates),
            initial_ibs=initial_ibs,
            hierarchy=hierarchy,
        )


def _rebuilt(dataset: Dataset, attrs: Sequence[str] | None) -> Hierarchy:
    """A fresh hierarchy over ``dataset`` (the ``incremental=False`` oracle)."""
    obs.count("remedy.hierarchy_rebuilds")
    return Hierarchy(dataset, attrs=attrs)


def _leaf_count_delta(
    leaf: tuple[np.ndarray, tuple[int, ...]],
    rows: EditedRows,
    selections: list[RowSelection],
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf-granular ``(dpos, dneg)`` of applying ``selections`` to ``rows``.

    ``leaf`` is the leaf code and shape of every input row.  A dropped row
    counts −1 and a duplicated row +1 under its label; a relabelled row
    counts −1 under its old label and +1 under its new one.  Only the edited
    rows' codes and labels are read, through the index.
    """
    leaf_codes, shape = leaf
    drop = np.concatenate([s.drop for s in selections])
    duplicate = np.concatenate([s.duplicate for s in selections])
    relabel = np.concatenate([s.relabel for s in selections])
    edited = np.concatenate([drop, duplicate, relabel])
    codes = leaf_codes[rows.origin[edited]]
    y = rows.labels[edited].astype(np.int64)
    moved = drop.size + duplicate.size
    sign = np.ones(moved, dtype=np.int64)
    sign[: drop.size] = -1
    flip = 1 - 2 * y[moved:]  # +1 for a negative turned positive, else -1
    dpos = np.zeros(int(np.prod(shape)), dtype=np.int64)
    dneg = np.zeros_like(dpos)
    np.add.at(dpos, codes, np.concatenate([sign * y[:moved], flip]))
    np.add.at(dneg, codes, np.concatenate([sign * (1 - y[:moved]), -flip]))
    return dpos.reshape(shape), dneg.reshape(shape)
