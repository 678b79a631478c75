"""Unit tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.core import Hierarchy
from repro.data import Column, Dataset, Schema, concat, schema_from_domains
from repro.data.dataset import joint_code_dtype
from repro.data.store import ShardedDataset
from repro.errors import DataError, DeltaError, SchemaError
from repro.stream.deltas import InsertDelta, delta_from_record
from repro.stream.engine import StreamAuditor
from repro.stream.journal import StreamConfig


class TestConstruction:
    def test_basic_counts(self, toy_dataset):
        assert toy_dataset.n_rows == 12
        assert toy_dataset.n_positive + toy_dataset.n_negative == 12

    def test_non_binary_labels_rejected(self, toy_schema):
        cols = {"age": np.zeros(2, int), "sex": np.zeros(2, int), "score": np.zeros(2)}
        with pytest.raises(DataError):
            Dataset(toy_schema, cols, np.array([0, 2]))

    def test_non_binary_label_error_names_row(self, toy_schema):
        cols = {"age": np.zeros(3, int), "sex": np.zeros(3, int), "score": np.zeros(3)}
        with pytest.raises(DataError, match="row 2"):
            Dataset(toy_schema, cols, np.array([0, 1, 7]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, toy_schema, bad):
        cols = {
            "age": np.zeros(3, int),
            "sex": np.zeros(3, int),
            "score": np.array([0.5, bad, 0.25]),
        }
        with pytest.raises(DataError, match=r"'score'.*row 1"):
            Dataset(toy_schema, cols, np.zeros(3, int))

    def test_code_error_names_column_and_row(self, toy_schema):
        cols = {
            "age": np.array([0, 0, 9]),
            "sex": np.zeros(3, int),
            "score": np.zeros(3),
        }
        with pytest.raises(DataError, match=r"'age'.*code 9.*row 2"):
            Dataset(toy_schema, cols, np.zeros(3, int))

    def test_missing_column_rejected(self, toy_schema):
        with pytest.raises(DataError):
            Dataset(toy_schema, {"age": np.zeros(2, int)}, np.zeros(2, int))

    def test_extra_column_rejected(self, toy_schema):
        cols = {
            "age": np.zeros(2, int),
            "sex": np.zeros(2, int),
            "score": np.zeros(2),
            "ghost": np.zeros(2),
        }
        with pytest.raises(DataError):
            Dataset(toy_schema, cols, np.zeros(2, int))

    def test_code_out_of_range_rejected(self, toy_schema):
        cols = {"age": np.array([9, 0]), "sex": np.zeros(2, int), "score": np.zeros(2)}
        with pytest.raises(DataError):
            Dataset(toy_schema, cols, np.zeros(2, int))

    def test_length_mismatch_rejected(self, toy_schema):
        cols = {"age": np.zeros(3, int), "sex": np.zeros(2, int), "score": np.zeros(2)}
        with pytest.raises(DataError):
            Dataset(toy_schema, cols, np.zeros(2, int))

    def test_protected_must_be_categorical(self, toy_schema):
        cols = {"age": np.zeros(2, int), "sex": np.zeros(2, int), "score": np.zeros(2)}
        with pytest.raises(SchemaError):
            Dataset(toy_schema, cols, np.zeros(2, int), protected=("score",))

    def test_empty_dataset_allowed(self, toy_schema):
        cols = {"age": np.zeros(0, int), "sex": np.zeros(0, int), "score": np.zeros(0)}
        ds = Dataset(toy_schema, cols, np.zeros(0, int))
        assert ds.n_rows == 0


class TestMasksAndCounts:
    def test_empty_assignment_matches_all(self, toy_dataset):
        assert toy_dataset.mask({}).all()

    def test_single_attr_mask(self, toy_dataset):
        mask = toy_dataset.mask({"age": 0})
        assert mask.sum() == 4

    def test_conjunction_mask(self, toy_dataset):
        mask = toy_dataset.mask({"age": 0, "sex": 0})
        assert mask.sum() == 4

    def test_counts(self, toy_dataset):
        pos, neg = toy_dataset.counts({"age": 0, "sex": 0})
        assert (pos, neg) == (4, 0)

    def test_mask_numeric_attr_rejected(self, toy_dataset):
        with pytest.raises(SchemaError):
            toy_dataset.mask({"score": 1})

    def test_mask_code_out_of_range(self, toy_dataset):
        with pytest.raises(SchemaError):
            toy_dataset.mask({"age": 99})

    def test_region_counts_match_masks(self, toy_dataset):
        pos, neg, shape = toy_dataset.region_counts(("age", "sex"))
        assert shape == (3, 2)
        for a in range(3):
            for s in range(2):
                expected = toy_dataset.counts({"age": a, "sex": s})
                flat = np.ravel_multi_index((a, s), shape)
                assert (int(pos[flat]), int(neg[flat])) == expected

    def test_joint_codes_total(self, toy_dataset):
        codes, shape = toy_dataset.joint_codes(("age", "sex"))
        assert codes.shape == (12,)
        assert codes.max() < np.prod(shape)

    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((), np.int16),
            ((2, 3), np.int16),
            ((16383,), np.int16),  # 2·16383 = 2¹⁵ − 2: the last int16 leaf
            ((128, 128), np.int32),  # 2·16384 = 2¹⁵
            ((2**30 - 1,), np.int32),  # 2·(2³⁰ − 1) = 2³¹ − 2
            ((2**15, 2**15), np.int64),  # 2·2³⁰ = 2³¹: the int64 fallback
            ((2**20, 2**20, 2), np.int64),
        ],
    )
    def test_joint_code_dtype_boundaries(self, shape, dtype):
        assert joint_code_dtype(shape) == np.dtype(dtype)

    @pytest.mark.parametrize("cards", [(3, 2, 4), (200, 2, 100), (5,)])
    def test_kernel_matches_ravel_multi_index_reference(self, cards):
        """The fused kernel and the multiply-add joint codes against the
        reference they replaced: ``ravel_multi_index`` plus one ``bincount``
        per label.  (200, 2, 100) builds its codes in int32."""
        rng = np.random.default_rng(len(cards))
        names = [f"x{i}" for i in range(len(cards))]
        schema = schema_from_domains(
            {n: tuple(range(c)) for n, c in zip(names, cards)}
        )
        n = 3000
        columns = {n_: rng.integers(0, c, n) for n_, c in zip(names, cards)}
        data = Dataset(schema, columns, rng.integers(0, 2, n), protected=names)
        rows = rng.random(n) < 0.3
        for attrs in (names, names[::-1], names[:1], []):
            shape = tuple(cards[names.index(a)] for a in attrs)
            arrays = [columns[a] for a in attrs]
            ref = np.ravel_multi_index(arrays, shape) if attrs else np.zeros(n, int)
            codes, got_shape = data.joint_codes(attrs)
            assert got_shape == shape
            assert codes.dtype == np.int64 and np.array_equal(codes, ref)
            size = int(np.prod(shape))
            y = data.y
            for sel in (None, rows, np.flatnonzero(rows)):
                keep = rows if sel is not None else np.ones(n, bool)
                pos, neg, __ = data.region_counts(attrs, rows=sel)
                assert pos.flags.c_contiguous and neg.flags.c_contiguous
                assert pos.dtype == neg.dtype == np.int64
                assert np.array_equal(
                    pos, np.bincount(ref[keep & (y == 1)], minlength=size)
                )
                assert np.array_equal(
                    neg, np.bincount(ref[keep & (y == 0)], minlength=size)
                )


class TestRowEdits:
    def test_take_bool_mask(self, toy_dataset):
        sub = toy_dataset.take(toy_dataset.y == 1)
        assert sub.n_rows == toy_dataset.n_positive
        assert sub.n_negative == 0

    def test_drop(self, toy_dataset):
        out = toy_dataset.drop(np.array([0, 1]))
        assert out.n_rows == 10

    def test_duplicate_rows(self, toy_dataset):
        out = toy_dataset.duplicate_rows(np.array([0, 0, 1]))
        assert out.n_rows == 15

    def test_append_rows_schema_mismatch(self, toy_dataset):
        other_schema = schema_from_domains({"z": ("v",)})
        other = Dataset(other_schema, {"z": np.zeros(1, int)}, np.zeros(1, int))
        with pytest.raises(DataError):
            toy_dataset.append_rows(other)

    def test_with_labels(self, toy_dataset):
        flipped = toy_dataset.with_labels(1 - toy_dataset.y)
        assert flipped.n_positive == toy_dataset.n_negative
        # Original untouched.
        assert toy_dataset.y.sum() != flipped.y.sum() or toy_dataset.n_rows == 0

    def test_with_protected(self, toy_dataset):
        view = toy_dataset.with_protected(("age",))
        assert view.protected == ("age",)
        assert toy_dataset.protected == ("age", "sex")

    def test_copy_is_deep(self, toy_dataset):
        dup = toy_dataset.copy()
        dup.y[0] = 1 - dup.y[0]
        assert dup.y[0] != toy_dataset.y[0]

    def test_edits_do_not_mutate_source(self, toy_dataset):
        before = toy_dataset.n_rows
        toy_dataset.drop(np.array([0]))
        toy_dataset.duplicate_rows(np.array([0]))
        assert toy_dataset.n_rows == before


class TestFeatureMatrix:
    def test_one_hot_width(self, toy_dataset):
        X = toy_dataset.feature_matrix()
        assert X.shape == (12, 3 + 2 + 1)

    def test_one_hot_rows_sum(self, toy_dataset):
        X = toy_dataset.feature_matrix(["age"])
        assert np.allclose(X.sum(axis=1), 1.0)

    def test_codes_mode(self, toy_dataset):
        X = toy_dataset.feature_matrix(["age", "sex"], one_hot=False)
        assert X.shape == (12, 2)
        assert X.max() == 2

    def test_labels_of(self, toy_dataset):
        labels = toy_dataset.labels_of("sex")
        assert set(labels) <= {"m", "f"}

    def test_labels_of_numeric_rejected(self, toy_dataset):
        with pytest.raises(SchemaError):
            toy_dataset.labels_of("score")


class TestFromRowsAndConcat:
    def test_from_rows_with_labels_and_codes(self, toy_schema):
        rows = [
            {"age": "young", "sex": 1, "score": 0.5, "label": 1},
            {"age": 2, "sex": "m", "score": -0.5, "label": 0},
        ]
        ds = Dataset.from_rows(toy_schema, rows, protected=("age",))
        assert ds.n_rows == 2
        assert ds.column("age").tolist() == [0, 2]

    def test_from_rows_missing_label(self, toy_schema):
        with pytest.raises(DataError):
            Dataset.from_rows(toy_schema, [{"age": 0, "sex": 0, "score": 0.0}])

    def test_from_rows_missing_column(self, toy_schema):
        with pytest.raises(DataError):
            Dataset.from_rows(toy_schema, [{"age": 0, "label": 1}])

    def test_concat(self, toy_dataset):
        merged = concat([toy_dataset, toy_dataset])
        assert merged.n_rows == 24

    def test_concat_empty_rejected(self):
        with pytest.raises(DataError):
            concat([])


def apply_delta(dataset, record):
    """Apply one stream delta record to ``dataset``'s rows through the
    stream's one delta path; returns the auditor holding the result."""
    auditor = StreamAuditor(
        StreamConfig(schema=dataset.schema, protected=dataset.protected, k=2)
    )
    names = dataset.schema.names
    rows = [
        InsertDelta(
            values=tuple(dataset.column(n)[i].item() for n in names),
            label=int(dataset.y[i]),
        )
        for i in range(dataset.n_rows)
    ]
    auditor.apply_batch(1, "rows", rows)
    auditor.apply_batch(2, "delta", [delta_from_record(record)])
    return auditor


class TestApplyDelta:
    """Single stream edits on a dataset's rows (``StreamState`` is the one
    delta path): the result equals the matching Dataset edit, and the
    auditor's folded hierarchy equals one rebuilt from that result."""

    def assert_equal_hierarchies(self, a, b):
        assert a.attrs == b.attrs
        for level in a.levels():
            for na, nb in zip(a.nodes_at_level(level), b.nodes_at_level(level)):
                assert np.array_equal(na.pos, nb.pos), na.attrs
                assert np.array_equal(na.neg, nb.neg), na.attrs

    def assert_applied(self, auditor, expected):
        out = auditor.state.materialize()
        assert np.array_equal(out.y, expected.y)
        for name in expected.schema.names:
            assert np.array_equal(out.column(name), expected.column(name))
        self.assert_equal_hierarchies(auditor.hierarchy, Hierarchy(out))

    def test_insert_appends_one_row(self, toy_dataset):
        auditor = apply_delta(toy_dataset, ["i", [2, 1, 0.25], 1])
        row = Dataset(
            toy_dataset.schema, {"age": [2], "sex": [1], "score": [0.25]}, [1]
        )
        self.assert_applied(auditor, toy_dataset.append_rows(row))

    def test_delete_drops_the_row(self, toy_dataset):
        auditor = apply_delta(toy_dataset, ["d", 5])
        self.assert_applied(auditor, toy_dataset.drop([5]))

    def test_relabel_flips_counts(self, toy_dataset):
        row = 5  # label 0 in the fixture
        auditor = apply_delta(toy_dataset, ["r", row, 1])
        y = toy_dataset.y.copy()
        y[row] = 1
        self.assert_applied(auditor, toy_dataset.with_labels(y))

    def test_noop_relabel_has_zero_delta(self, toy_dataset):
        old = int(toy_dataset.y[3])
        auditor = apply_delta(toy_dataset, ["r", 3, old])
        self.assert_equal_hierarchies(auditor.hierarchy, Hierarchy(toy_dataset))

    def test_source_dataset_is_untouched(self, toy_dataset):
        n = toy_dataset.n_rows
        y_before = toy_dataset.y.copy()
        auditor = apply_delta(toy_dataset, ["r", 0, 0])
        snapshot = auditor.state.materialize()
        auditor.apply_batch(3, "more", [
            delta_from_record(r) for r in (["i", [0, 0, 0.0], 0], ["d", 1])
        ])
        assert toy_dataset.n_rows == n
        assert np.array_equal(toy_dataset.y, y_before)
        assert snapshot.n_rows == n and int(snapshot.y[0]) == 0

    def test_insert_arity_error_names_columns(self, toy_dataset):
        with pytest.raises(DeltaError, match="2 values for 3 schema columns"):
            apply_delta(toy_dataset, ["i", [0, 0], 1])

    def test_insert_validation_matches_constructor(self, toy_dataset):
        # An out-of-range categorical code raises the same row-naming
        # message the constructor produces for that row.
        n = toy_dataset.n_rows
        with pytest.raises(DeltaError) as from_stream:
            apply_delta(toy_dataset, ["i", [9, 0, 0.0], 1])
        with pytest.raises(DataError) as from_constructor:
            Dataset(
                toy_dataset.schema,
                {
                    name: np.append(toy_dataset.column(name), value)
                    for name, value in zip(toy_dataset.schema.names, (9, 0, 0.0))
                },
                np.append(toy_dataset.y, 1),
            )
        assert f"at row {n}," in str(from_stream.value)
        assert str(from_stream.value) == str(from_constructor.value)

    def test_delete_unknown_row(self, toy_dataset):
        with pytest.raises(DeltaError, match="delete targets unknown row 99"):
            apply_delta(toy_dataset, ["d", 99])

    def test_relabel_rejects_non_binary(self, toy_dataset):
        with pytest.raises(DeltaError, match="binary 0/1"):
            apply_delta(toy_dataset, ["r", 0, 2])

    def test_unknown_kind(self, toy_dataset):
        with pytest.raises(DeltaError, match="unknown delta tag"):
            apply_delta(toy_dataset, ["u", 0])

    def test_missing_arguments_are_typed(self, toy_dataset):
        with pytest.raises(DeltaError, match="insert record must be"):
            apply_delta(toy_dataset, ["i", [0, 0, 0.0]])
        with pytest.raises(DeltaError, match="delete record must be"):
            apply_delta(toy_dataset, ["d"])
        with pytest.raises(DeltaError, match="relabel record must be"):
            apply_delta(toy_dataset, ["r", 0])


def in_memory(dataset):
    return dataset


def sharded_twin(dataset):
    return ShardedDataset.from_dataset(dataset, shard_rows=5)


ROW_ERRORS = {
    "region_counts-mask": (
        lambda d: d.region_counts(("age",), rows=np.ones(13, dtype=bool)),
        "boolean row mask has shape (13,), expected (12,)",
    ),
    "take-mask": (
        lambda d: d.take(np.ones(13, dtype=bool)),
        "boolean row mask has shape (13,), expected (12,)",
    ),
    "region_counts-index": (
        lambda d: d.region_counts(("age",), rows=[12]),
        "row index 12 out of range for 12 rows",
    ),
    "take-index": (
        lambda d: d.take([3, 12]), "row index 12 out of range for 12 rows"
    ),
    "take-negative": (
        lambda d: d.take([-13]), "row index -13 out of range for 12 rows"
    ),
    "drop-index": (
        lambda d: d.drop([12]), "row index 12 out of range for 12 rows"
    ),
    "with_labels-length": (
        lambda d: d.with_labels(np.zeros(13, dtype=int)),
        "with_labels needs 12 labels, got 13",
    ),
}


class TestErrorContract:
    """Both backings of the row store fail alike, with one wording."""

    @pytest.mark.parametrize("backing", [in_memory, sharded_twin])
    @pytest.mark.parametrize("case", sorted(ROW_ERRORS))
    def test_bad_rows_raise_one_data_error(self, toy_dataset, backing, case):
        call, message = ROW_ERRORS[case]
        with pytest.raises(DataError) as caught:
            call(backing(toy_dataset))
        assert str(caught.value) == message

    @pytest.mark.parametrize("backing", [in_memory, sharded_twin])
    def test_empty_take_is_zero_rows(self, toy_dataset, backing):
        out = backing(toy_dataset).take([])
        assert len(out) == 0 and out.column("age").dtype == np.int64
