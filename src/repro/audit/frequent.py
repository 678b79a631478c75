"""Apriori frequent-pattern mining over categorical attributes.

DivExplorer [26] — the tool the paper uses to enumerate unfair subgroups —
is built on frequent-pattern mining: only itemsets (conjunctions of
attribute=value pairs) above a support threshold are materialised, and the
anti-monotonicity of support (any extension of an infrequent pattern is
infrequent) prunes the exponential lattice.  This module provides that
engine: level-wise Apriori candidate generation with vectorised support
counting, returning every frequent pattern with its row mask available on
demand.

The brute-force enumerator in :mod:`repro.audit.divexplorer` visits every
cell of every attribute subset; for low support thresholds on wide schemas
the Apriori path visits a fraction of that.  Both return identical pattern
sets (a property the test suite pins).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.errors import DataError


@dataclass(frozen=True)
class FrequentPattern:
    """A pattern with its absolute support count."""

    pattern: Pattern
    count: int

    def support(self, n_rows: int) -> float:
        return self.count / n_rows if n_rows else 0.0


def _item_masks(
    dataset: Dataset, attrs: Sequence[str]
) -> dict[tuple[str, int], np.ndarray]:
    """Boolean mask per single attribute=value item."""
    masks: dict[tuple[str, int], np.ndarray] = {}
    for attr in attrs:
        column = dataset.column(attr)
        for code in range(dataset.schema[attr].cardinality):
            masks[(attr, code)] = column == code
    return masks


def mine_frequent_patterns(
    dataset: Dataset,
    min_count: int,
    attrs: Sequence[str] | None = None,
    max_level: int | None = None,
) -> list[FrequentPattern]:
    """All patterns with at least ``min_count`` matching rows (Apriori).

    Patterns are conjunctions over distinct attributes in ``attrs``
    (default: the dataset's protected attributes), up to ``max_level``
    deterministic elements.  The empty pattern is not returned.

    The classic level-wise loop: level-``d`` candidates are built by
    joining frequent level-``(d-1)`` patterns with frequent single items of
    a lexicographically later attribute; support anti-monotonicity makes
    the join complete.
    """
    if attrs is None:
        attrs = dataset.protected
    attrs = tuple(attrs)
    if not attrs:
        raise DataError("frequent mining needs at least one attribute")
    dataset.schema.require_categorical(attrs)
    if min_count < 1:
        raise DataError("min_count must be >= 1")
    max_level = len(attrs) if max_level is None else min(max_level, len(attrs))

    masks = _item_masks(dataset, attrs)
    attr_order = {a: i for i, a in enumerate(attrs)}

    # Level 1: frequent single items.
    current: dict[Pattern, np.ndarray] = {}
    results: list[FrequentPattern] = []
    for (attr, code), mask in masks.items():
        count = int(mask.sum())
        if count >= min_count:
            pattern = Pattern([(attr, code)])
            current[pattern] = mask
            results.append(FrequentPattern(pattern, count))

    level = 1
    while current and level < max_level:
        nxt: dict[Pattern, np.ndarray] = {}
        for pattern, mask in current.items():
            last_attr = max(pattern.attrs, key=attr_order.__getitem__)
            for attr in attrs[attr_order[last_attr] + 1 :]:
                for code in range(dataset.schema[attr].cardinality):
                    item_mask = masks[(attr, code)]
                    joined = mask & item_mask
                    count = int(joined.sum())
                    if count >= min_count:
                        extended = pattern.with_value(attr, code)
                        nxt[extended] = joined
                        results.append(FrequentPattern(extended, count))
        current = nxt
        level += 1

    results.sort(key=lambda f: (f.pattern.level, f.pattern.items))
    return results


def brute_force_frequent_patterns(
    dataset: Dataset,
    min_count: int,
    attrs: Sequence[str] | None = None,
    max_level: int | None = None,
) -> list[FrequentPattern]:
    """Reference implementation: enumerate every cell of every subset.

    Exists to validate :func:`mine_frequent_patterns` (property tests) and
    to quantify the Apriori pruning in the ablation benchmark.
    """
    if attrs is None:
        attrs = dataset.protected
    attrs = tuple(attrs)
    dataset.schema.require_categorical(attrs)
    max_level = len(attrs) if max_level is None else min(max_level, len(attrs))

    results = []
    for level in range(1, max_level + 1):
        for subset in itertools.combinations(attrs, level):
            codes, shape = dataset.joint_codes(subset)
            counts = np.bincount(codes, minlength=int(np.prod(shape)))
            for flat in np.flatnonzero(counts >= min_count):
                coords = np.unravel_index(int(flat), shape)
                pattern = Pattern(zip(subset, (int(c) for c in coords)))
                results.append(FrequentPattern(pattern, int(counts[flat])))
    results.sort(key=lambda f: (f.pattern.level, f.pattern.items))
    return results


def iter_pattern_masks(
    dataset: Dataset, frequent: Sequence[FrequentPattern]
) -> Iterator[tuple[FrequentPattern, np.ndarray]]:
    """Yield ``(frequent_pattern, row_mask)`` pairs for downstream statistics."""
    for fp in frequent:
        yield fp, fp.pattern.mask(dataset)
