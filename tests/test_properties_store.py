"""Property tests: a sharded dataset is extensionally a Dataset.

Random schemas, row counts, and shard sizes (including one row per shard
and a single shard covering everything) must make
:class:`~repro.data.store.ShardedDataset` indistinguishable from the
in-memory :class:`~repro.data.Dataset` it was built from:

* ``region_counts`` byte-identical — same bytes, dtype and shape — for
  the full table, a boolean row mask, and explicit row indices;
* ``identify_ibs`` reports equal under all three neighbourhood engines;
* random sequences of row edits (``take`` by mask and by index with
  duplicates, ``drop``, ``append_rows``, ``duplicate_rows``,
  ``with_labels``) keep both forms equal, counts included, at every step;
* a disk round-trip (write_store -> open) preserves every column bit
  for bit, with categorical files of mixed stored widths (``uint8`` and
  ``uint16``) read back as ``int64``, and ``remedy_dataset`` runs
  unmodified on the sharded form.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import identify_ibs, remedy_dataset
from repro.data import Column, Dataset, Schema, schema_from_domains
from repro.data.store import ShardedDataset, iter_chunks, write_store

pytestmark = pytest.mark.slow

ENGINES = ("naive", "optimized", "vectorized")


@st.composite
def store_cases(draw):
    """(dataset, shard_rows): random schema, rows and shard geometry.

    Besides the protected attributes, a schema may carry an unprotected
    categorical ``wide`` whose cardinality straddles the ``uint8``/``uint16``
    store widths, and a numeric ``score``."""
    n_attrs = draw(st.integers(2, 3))
    cards = [draw(st.integers(2, 4)) for __ in range(n_attrs)]
    n_rows = draw(st.integers(1, 80))
    # shard_rows spans the degenerate geometries: 1 row per shard, a few
    # rows per shard, and one shard swallowing the whole table.
    shard_rows = draw(st.sampled_from((1, 2, 3, 7, 13, 200)))
    seed = draw(st.integers(0, 10_000))
    wide = draw(st.sampled_from((None, 5, 256, 257, 1000)))
    with_numeric = draw(st.booleans())
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(n_attrs)]
    domains = {n: tuple(f"v{j}" for j in range(c)) for n, c in zip(names, cards)}
    columns = {
        name: rng.integers(0, card, size=n_rows)
        for name, card in zip(names, cards)
    }
    if wide is not None:
        domains["wide"] = tuple(f"w{j}" for j in range(wide))
        # Pin the top code so the widest value is always stored.
        columns["wide"] = np.r_[wide - 1, rng.integers(0, wide, size=n_rows - 1)]
    schema = schema_from_domains(domains)
    if with_numeric:
        schema = Schema(list(schema) + [Column("score", "numeric")])
        columns["score"] = rng.normal(size=n_rows)
    y = rng.integers(0, 2, size=n_rows)
    dataset = Dataset(schema, columns, y, protected=tuple(names))
    return dataset, shard_rows


def assert_counts_byte_identical(dataset, sharded, attrs, rows=None):
    pos, neg, shape = dataset.region_counts(attrs, rows=rows)
    spos, sneg, sshape = sharded.region_counts(attrs, rows=rows)
    assert sshape == shape
    assert spos.dtype == pos.dtype and sneg.dtype == neg.dtype
    assert spos.tobytes() == pos.tobytes()
    assert sneg.tobytes() == neg.tobytes()


class TestRegionCountParity:
    @settings(max_examples=40, deadline=None)
    @given(store_cases())
    def test_full_table_counts(self, case):
        dataset, shard_rows = case
        sharded = ShardedDataset.from_dataset(dataset, shard_rows=shard_rows)
        attrs = dataset.protected
        assert_counts_byte_identical(dataset, sharded, attrs)
        # subsets of the protected attributes too
        assert_counts_byte_identical(dataset, sharded, attrs[:1])

    @settings(max_examples=40, deadline=None)
    @given(store_cases(), st.integers(0, 10_000))
    def test_row_subset_counts(self, case, mask_seed):
        dataset, shard_rows = case
        sharded = ShardedDataset.from_dataset(dataset, shard_rows=shard_rows)
        rng = np.random.default_rng(mask_seed)
        mask = rng.integers(0, 2, size=len(dataset)).astype(bool)
        attrs = dataset.protected
        assert_counts_byte_identical(dataset, sharded, attrs, rows=mask)
        idx = np.flatnonzero(mask)
        assert_counts_byte_identical(dataset, sharded, attrs, rows=idx)

    @settings(max_examples=25, deadline=None)
    @given(store_cases())
    def test_disk_round_trip_counts(self, tmp_path_factory, case):
        dataset, shard_rows = case
        path = tmp_path_factory.mktemp("prop") / "store"
        write_store(path, iter_chunks(dataset, shard_rows), shard_rows)
        with ShardedDataset.open(path) as sharded:
            assert len(sharded) == len(dataset)
            for name in dataset.schema.names:
                a, b = dataset.column(name), sharded.column(name)
                assert a.dtype == b.dtype
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert np.array_equal(sharded.y, dataset.y)
            assert_counts_byte_identical(dataset, sharded, dataset.protected)
            if "wide" in dataset.schema:
                attrs = ("wide",) + dataset.protected[:1]
                assert_counts_byte_identical(dataset, sharded, attrs)
                assert np.array_equal(
                    sharded.joint_codes(attrs)[0], dataset.joint_codes(attrs)[0]
                )


class TestIbsParity:
    @settings(max_examples=15, deadline=None)
    @given(store_cases(), st.sampled_from((0.2, 0.5)))
    def test_reports_equal_under_every_engine(self, case, tau_c):
        dataset, shard_rows = case
        sharded = ShardedDataset.from_dataset(dataset, shard_rows=shard_rows)
        for method in ENGINES:
            expected = identify_ibs(dataset, tau_c, k=2, method=method)
            actual = identify_ibs(sharded, tau_c, k=2, method=method)
            assert actual == expected


EDITS = (
    "take_mask", "take_index", "drop", "append_rows", "duplicate_rows",
    "with_labels",
)


@st.composite
def edit_sequences(draw):
    """(dataset, shard_rows, ops): each op is an edit name and a seed that
    draws its arguments from the length the table has when it runs."""
    dataset, shard_rows = draw(store_cases())
    ops = draw(st.lists(
        st.tuples(st.sampled_from(EDITS), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=6,
    ))
    return dataset, shard_rows, ops


def apply_edit(table, kind, seed, source, shard_rows):
    """Apply one edit; identical arguments for equal-length tables."""
    rng = np.random.default_rng(seed)
    n = len(table)
    if kind == "take_mask":
        return table.take(rng.random(n) < 0.7)
    if kind == "take_index":
        # negative positions and repeats included; may be empty
        size = int(rng.integers(0, n + 3)) if n else 0
        return table.take(rng.integers(-n, n, size=size) if n else [])
    if kind == "drop":
        return table.drop(rng.choice(n, size=min(n, 2), replace=False))
    if kind == "duplicate_rows":
        return table.duplicate_rows(rng.integers(0, n, size=3) if n else [])
    if kind == "with_labels":
        return table.with_labels(rng.integers(0, 2, size=n))
    extra = source.take(rng.integers(0, len(source), size=int(rng.integers(1, 6))))
    if isinstance(table, ShardedDataset):
        extra = ShardedDataset.from_dataset(extra, shard_rows)
    return table.append_rows(extra)


class TestDeltaParity:
    @settings(max_examples=60, deadline=None)
    @given(edit_sequences())
    def test_delta_sequences_stay_in_lockstep(self, case):
        source, shard_rows, ops = case
        dataset = source
        sharded = ShardedDataset.from_dataset(source, shard_rows=shard_rows)
        for kind, seed in ops:
            dataset = apply_edit(dataset, kind, seed, source, shard_rows)
            sharded = apply_edit(sharded, kind, seed, source, shard_rows)
            assert isinstance(sharded, ShardedDataset)
            assert type(dataset) is Dataset and len(dataset._chunks) <= 1
            assert len(sharded) == len(dataset)
            assert sharded.y.dtype == dataset.y.dtype
            assert np.array_equal(sharded.y, dataset.y)
            for name in dataset.schema.names:
                a, b = dataset.column(name), sharded.column(name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert_counts_byte_identical(dataset, sharded, dataset.protected)


class TestRemedyParity:
    @settings(max_examples=8, deadline=None)
    @given(store_cases(), st.sampled_from((0.2, 0.5)))
    def test_remedy_runs_unmodified_and_agrees(self, case, tau_c):
        dataset, shard_rows = case
        assume(dataset.n_positive > 0 and dataset.n_negative > 0)
        sharded = ShardedDataset.from_dataset(dataset, shard_rows=shard_rows)
        expected = remedy_dataset(dataset, tau_c, k=2, seed=3)
        actual = remedy_dataset(sharded, tau_c, k=2, seed=3)
        assert len(actual.updates) == len(expected.updates)
        assert actual.initial_ibs == expected.initial_ibs
        assert np.array_equal(actual.dataset.y, expected.dataset.y)
        for name in dataset.schema.names:
            assert np.array_equal(
                actual.dataset.column(name), expected.dataset.column(name)
            )
