"""Columnar labelled dataset used throughout the library.

The paper's pipeline needs three things from its tabular substrate: boolean
masks for conjunctive patterns over categorical attributes, fast positive /
negative counts inside such regions, and cheap row-level edits (duplicate,
drop, relabel) for the remedy samplers.  :class:`Dataset` provides exactly
that on top of plain numpy arrays — categorical columns are integer code
arrays indexing the column's domain (``int64`` in memory; a store may keep
them narrower on disk), numeric columns are ``float64``.

A dataset is an ordered tuple of row *chunks*.  A chunk has ``n_rows``,
``column(index)`` (the array of schema column ``index``, categorical codes as
``int64``), ``codes(index)`` (categorical column ``index`` at the width the
chunk stores it), ``labels()`` (int8) and ``relabeled(y)`` (the same columns
under new labels).  Two kinds exist: the in-memory :class:`MemoryChunk`
below, whose columns are ``int64``, and the memory-mapped ``DiskShard`` of
:mod:`repro.data.store`, whose categorical files may be narrower.  Counts and
masks read ``codes``; everything that hands rows out reads ``column``, so
callers always see ``int64`` codes.  Reductions run chunk by chunk and add up
exactly; edits are copy-on-write per chunk, so a chunk an edit leaves whole
is shared by identity with the source.  A dataset built from arrays is one
chunk, and ``column``/``y`` hand back its arrays without copying.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.schema import Column, Schema
from repro.errors import DataError, SchemaError


class MemoryChunk:
    """Rows held in memory: one array per schema column plus int8 labels."""

    __slots__ = ("arrays", "_y", "n_rows")

    def __init__(self, arrays: Sequence[np.ndarray], y: np.ndarray):
        self.arrays = tuple(arrays)
        self._y = np.asarray(y, dtype=np.int8)
        self.n_rows = int(self._y.shape[0])

    def column(self, index: int) -> np.ndarray:
        """The array of schema column ``index``."""
        return self.arrays[index]

    def codes(self, index: int) -> np.ndarray:
        """Categorical column ``index`` as stored: the column array itself."""
        return self.arrays[index]

    def labels(self) -> np.ndarray:
        """The int8 labels."""
        return self._y

    def relabeled(self, y: np.ndarray) -> "MemoryChunk":
        """The same column arrays under replacement labels ``y``."""
        return MemoryChunk(self.arrays, y)


def _require_binary(y: np.ndarray) -> None:
    if y.shape[0]:
        bad = ~np.isin(y, (0, 1))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise DataError(f"labels must be binary 0/1; row {row} has {y[row]!r}")


def _join(parts: list[np.ndarray], dtype: type) -> np.ndarray:
    """One array from per-chunk parts; a single part comes back as is."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(parts)


def _dtype(col: Column) -> type:
    return np.int64 if col.is_categorical else np.float64


def joint_code_dtype(shape: Sequence[int]) -> np.dtype:
    """The signed integer dtype the count kernel builds joint codes in.

    Each row's joint code over cardinalities ``shape``, with its label
    folded in (``y·prod(shape) + code``), lies below ``2·prod(shape)``;
    this is the narrowest of ``int16``/``int32`` that holds that bound,
    else ``int64``.  Narrow codes make the multiply-adds and ``bincount``'s
    cast of its input cheaper (``int8`` measured no faster than ``int16``).
    """
    bound = 2 * prod(shape)
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _mixed_radix(
    columns: Sequence[np.ndarray], shape: Sequence[int], dtype: np.dtype, n: int
) -> np.ndarray:
    """Row-wise mixed-radix code of the code ``columns`` over ``shape``.

    Built by multiply-add in ``dtype``, which must hold ``prod(shape) - 1``;
    every column must hold codes in ``[0, card)`` (a wider column is cast
    down, which that bound makes exact).  Always a fresh array.
    """
    if not columns:
        return np.zeros(n, dtype=dtype)
    code = columns[0].astype(dtype)
    for column, card in zip(columns[1:], shape[1:]):
        code *= card
        np.add(code, column, out=code, dtype=dtype, casting="unsafe")
    return code


class Dataset:
    """An immutable-by-convention labelled table.

    Parameters
    ----------
    schema:
        Column descriptors.
    columns:
        ``{name: ndarray}`` with one 1-D array per schema column, all the
        same length.  Categorical arrays hold integer codes in
        ``[0, cardinality)``; numeric arrays hold floats.
    y:
        Binary labels (0/1), same length as the columns.
    protected:
        Names of the protected attributes (must be categorical columns).
        These define the intersectional space of the paper.

    Mutating methods (``take``, ``drop``, ``append_rows``, ``with_labels``)
    return new datasets of the same class; the underlying arrays of the
    source are never modified.  Their results are assembled from chunks that
    were validated when first built, so only the constructor (and the
    arguments of ``with_labels``/``append_rows``) is checked.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        y: np.ndarray,
        protected: Sequence[str] = (),
    ):
        y = np.asarray(y)
        if y.ndim != 1:
            raise DataError(f"y must be 1-D, got shape {y.shape}")
        n = y.shape[0]
        _require_binary(y)

        missing = [c.name for c in schema if c.name not in columns]
        if missing:
            raise DataError(f"missing arrays for schema columns {missing}")
        extra = [name for name in columns if name not in schema]
        if extra:
            raise DataError(f"arrays {extra} have no schema column")
        arrays: list[np.ndarray] = []
        for col in schema:
            arr = np.asarray(columns[col.name])
            if arr.ndim != 1 or arr.shape[0] != n:
                raise DataError(
                    f"column {col.name!r} must be 1-D of length {n}, "
                    f"got shape {arr.shape}"
                )
            if col.is_categorical:
                arr = arr.astype(np.int64, copy=False)
                if n:
                    bad = (arr < 0) | (arr >= col.cardinality)
                    if bad.any():
                        row = int(np.flatnonzero(bad)[0])
                        raise DataError(
                            f"column {col.name!r} has code {int(arr[row])} at "
                            f"row {row}, outside [0, {col.cardinality})"
                        )
            else:
                arr = arr.astype(np.float64, copy=False)
                if n:
                    bad = ~np.isfinite(arr)
                    if bad.any():
                        row = int(np.flatnonzero(bad)[0])
                        raise DataError(
                            f"column {col.name!r} has non-finite value "
                            f"{float(arr[row])!r} at row {row}; features must "
                            "be finite (no NaN/inf)"
                        )
            arrays.append(arr)

        protected = tuple(protected)
        schema.require_categorical(protected)
        self._setup(schema, (MemoryChunk(arrays, y),), protected)

    @classmethod
    def _from_chunks(
        cls, schema: Schema, chunks: Iterable[object], protected: tuple[str, ...]
    ) -> "Dataset":
        """A dataset over already-validated chunks (no row is re-checked)."""
        out = cls.__new__(cls)
        out._setup(schema, chunks, protected)
        return out

    def _setup(
        self, schema: Schema, chunks: Iterable[object], protected: tuple[str, ...]
    ) -> None:
        self.schema = schema
        self.protected = protected
        self._chunks = tuple(chunks)
        self._offsets = tuple(
            accumulate((c.n_rows for c in self._chunks), initial=0)
        )
        self._index = {name: i for i, name in enumerate(schema.names)}
        self._y: np.ndarray | None = None

    def _derive(
        self, chunks: Iterable[object], protected: tuple[str, ...] | None = None
    ) -> "Dataset":
        return type(self)._from_chunks(
            self.schema, chunks, self.protected if protected is None else protected
        )

    def _spans(self) -> Iterator[tuple[object, int, int]]:
        """``(chunk, start, stop)`` with each chunk's global row range."""
        return zip(self._chunks, self._offsets, self._offsets[1:])

    # -- basic accessors ----------------------------------------------------
    def __len__(self) -> int:
        return self._offsets[-1]

    @property
    def n_rows(self) -> int:
        return self._offsets[-1]

    @property
    def y(self) -> np.ndarray:
        """The int8 labels (several chunks' are concatenated once, cached)."""
        if self._y is None:
            self._y = _join([c.labels() for c in self._chunks], np.int8)
        return self._y

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())

    @property
    def n_negative(self) -> int:
        return int(self.n_rows - self.y.sum())

    def column(self, name: str) -> np.ndarray:
        """The array of column ``name`` (do not mutate).

        One chunk's own array, or the chunks' arrays concatenated.
        """
        if name not in self._index:
            raise SchemaError(f"unknown column {name!r}")
        index = self._index[name]
        parts = [c.column(index) for c in self._chunks]
        return _join(parts, _dtype(self.schema[name]))

    def labels_of(self, name: str) -> np.ndarray:
        """Column values decoded to their string labels (categorical only)."""
        col = self.schema[name]
        if not col.is_categorical:
            raise SchemaError(f"column {name!r} is numeric; has no labels")
        domain = np.asarray(col.domain, dtype=object)
        return domain[self.column(name)]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n_rows}, +={self.n_positive}, "
            f"-={self.n_negative}, protected={list(self.protected)})"
        )

    # -- row selections -------------------------------------------------------
    def _rows(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` checked against this dataset: a full-length boolean mask
        as is, or an integer index with negative positions resolved."""
        rows = np.asarray(rows)
        n = self.n_rows
        if rows.dtype == bool:
            if rows.shape != (n,):
                raise DataError(
                    f"boolean row mask has shape {rows.shape}, expected ({n},)"
                )
            return rows
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise DataError(
                "rows must be a boolean mask or a 1-D integer index, got "
                f"{rows.dtype} of shape {rows.shape}"
            )
        lo, hi = int(rows.min()), int(rows.max())
        if lo < -n or hi >= n:
            raise DataError(
                f"row index {lo if lo < -n else hi} out of range for {n} rows"
            )
        rows = rows.astype(np.int64, copy=False)
        return np.where(rows < 0, rows + n, rows) if lo < 0 else rows

    # -- pattern masks and counts --------------------------------------------
    def _check_assignment(self, assignment: Mapping[str, int]) -> None:
        for name, code in assignment.items():
            col = self.schema[name]
            if not col.is_categorical:
                raise SchemaError(f"pattern attribute {name!r} must be categorical")
            if not 0 <= int(code) < col.cardinality:
                raise SchemaError(f"code {code} out of range for column {name!r}")

    def _chunk_mask(self, chunk: object, assignment: Mapping[str, int]) -> np.ndarray:
        out = np.ones(chunk.n_rows, dtype=bool)
        for name, code in assignment.items():
            out &= chunk.codes(self._index[name]) == int(code)
        return out

    def mask(self, assignment: Mapping[str, int]) -> np.ndarray:
        """Boolean mask of rows matching ``{attr: code}`` conjunctively.

        An empty assignment matches every row (the level-0 "entire dataset"
        region of the hierarchy).
        """
        self._check_assignment(assignment)
        return _join([self._chunk_mask(c, assignment) for c in self._chunks], bool)

    def counts(self, assignment: Mapping[str, int]) -> tuple[int, int]:
        """``(|r+|, |r-|)`` — positive and negative rows matching the pattern."""
        self._check_assignment(assignment)
        pos = total = 0
        for chunk in self._chunks:
            m = self._chunk_mask(chunk, assignment)
            pos += int(chunk.labels()[m].sum())
            total += int(m.sum())
        return pos, total - pos

    def joint_codes(self, attrs: Sequence[str]) -> tuple[np.ndarray, tuple[int, ...]]:
        """Mixed-radix joint code of each row over categorical ``attrs``.

        Returns ``(codes, shape)`` where ``codes[i]`` is the flattened cell
        index of row ``i`` in the cross-product space of the attribute
        domains (``int64``, so callers can index with it), and ``shape`` is
        the per-attribute cardinality tuple.  This is the vectorised engine
        behind hierarchy-level counting: a single ``bincount`` over the joint
        codes yields the size of every region at once.
        """
        shape = self.schema.cardinalities(attrs)
        index = [self._index[a] for a in attrs]
        int64 = np.dtype(np.int64)
        parts = [
            _mixed_radix([c.codes(j) for j in index], shape, int64, c.n_rows)
            for c in self._chunks
        ]
        return _join(parts, np.int64), shape

    def region_counts(
        self, attrs: Sequence[str], rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Positive and negative counts of every cell over ``attrs``.

        Returns ``(pos, neg, shape)`` where ``pos``/``neg`` are contiguous
        ``int64`` arrays of length ``prod(shape)`` indexed by the mixed-radix
        joint code.  When ``rows`` (a boolean mask or integer index array) is
        given, only those rows are counted, without materialising a
        sub-dataset (``Hierarchy.region_leaf_counts`` counts a region's slice
        this way).  Each chunk is ``bincount``ed on its own and the partials
        summed, which is integer-exact: the result does not depend on the
        chunking or on the width a chunk stores its codes at.
        """
        return self._reduce_counts(range(len(self._chunks)), attrs, rows)

    def _reduce_counts(
        self,
        chunk_indices: Iterable[int],
        attrs: Sequence[str],
        rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """The count kernel: one fused ``bincount`` per chunk.

        Each row's joint code over ``attrs`` gets its label folded in as the
        leading digit (``y·prod(shape) + code``), built by multiply-add over
        the chunk's stored-width codes in :func:`joint_code_dtype`.  One
        ``bincount`` then counts negatives in its lower half and positives
        in its upper half, so both come back as contiguous views of it.
        """
        shape = self.schema.cardinalities(attrs)
        size = prod(shape)
        radix = (2,) + shape
        dtype = joint_code_dtype(shape)
        index = [self._index[a] for a in attrs]
        if rows is not None:
            rows = self._rows(rows)
            if rows.dtype != bool:
                rows = np.sort(rows)
        counts = None
        for i in chunk_indices:
            chunk = self._chunks[i]
            sel = None
            if rows is not None:
                start, stop = self._offsets[i], self._offsets[i + 1]
                if rows.dtype == bool:
                    sel = rows[start:stop]
                    if not sel.any():
                        continue
                else:
                    lo, hi = np.searchsorted(rows, (start, stop))
                    if lo == hi:
                        continue
                    sel = rows[lo:hi] - start
            columns = [chunk.labels()] + [chunk.codes(j) for j in index]
            code = _mixed_radix(columns, radix, dtype, chunk.n_rows)
            if sel is not None:
                code = code[sel]
            part = np.bincount(code, minlength=2 * size)
            if counts is None:
                counts = part
            else:
                counts += part
        if counts is None:
            counts = np.zeros(2 * size, dtype=np.int64)
        return counts[size:], counts[:size], shape

    # -- row-level edits (return new datasets) --------------------------------
    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset with rows at ``indices`` (boolean mask or int index).

        A boolean mask is copy-on-write per chunk: a chunk it keeps whole is
        reused by identity (a disk shard stays on disk), a chunk it thins is
        copied into memory, a chunk it empties is dropped.  An integer index
        gathers into one in-memory chunk, keeping its order and duplicates.
        """
        rows = self._rows(indices)
        if rows.dtype != bool:
            return self._derive((self._gather(rows),))
        chunks = []
        for chunk, start, stop in self._spans():
            sub = rows[start:stop]
            if sub.all():
                chunks.append(chunk)
            elif sub.any():
                arrays = [chunk.column(i)[sub] for i in range(len(self._index))]
                chunks.append(MemoryChunk(arrays, chunk.labels()[sub]))
        return self._derive(chunks)

    def _gather(self, idx: np.ndarray) -> MemoryChunk:
        arrays = [np.empty(idx.size, dtype=_dtype(col)) for col in self.schema]
        y = np.empty(idx.size, dtype=np.int8)
        for chunk, start, stop in self._spans():
            dest = np.flatnonzero((idx >= start) & (idx < stop))
            if dest.size == 0:
                continue
            local = idx[dest] - start
            for i, arr in enumerate(arrays):
                arr[dest] = chunk.column(i)[local]
            y[dest] = chunk.labels()[local]
        return MemoryChunk(arrays, y)

    def drop(self, indices: np.ndarray) -> "Dataset":
        """New dataset with rows at ``indices`` removed (chunks the drop does
        not touch are reused by identity)."""
        keep = np.ones(self.n_rows, dtype=bool)
        keep[self._rows(indices)] = False
        return self.take(keep)

    def append_rows(self, other: "Dataset") -> "Dataset":
        """New dataset with ``other``'s rows appended (schemas must match).

        When this dataset's last chunk and ``other``'s first are both in
        memory they are concatenated into one, so an in-memory dataset stays
        a single chunk; every other chunk of ``other`` is adopted by identity.
        """
        if other.schema != self.schema:
            raise DataError("cannot append rows with a different schema")
        head, tail = self._chunks, other._chunks
        if (
            head and tail
            and isinstance(head[-1], MemoryChunk)
            and isinstance(tail[0], MemoryChunk)
        ):
            a, b = head[-1], tail[0]
            joined = MemoryChunk(
                [np.concatenate(pair) for pair in zip(a.arrays, b.arrays)],
                np.concatenate([a.labels(), b.labels()]),
            )
            head, tail = head[:-1] + (joined,), tail[1:]
        return self._derive(head + tail)

    def duplicate_rows(self, indices: np.ndarray) -> "Dataset":
        """New dataset with copies of rows at ``indices`` appended."""
        return self.append_rows(self.take(np.asarray(indices, dtype=np.int64)))

    def with_labels(self, y: np.ndarray) -> "Dataset":
        """New dataset sharing every chunk's columns under labels ``y``."""
        y = np.asarray(y)
        if y.ndim != 1:
            raise DataError(f"y must be 1-D, got shape {y.shape}")
        if y.shape[0] != self.n_rows:
            raise DataError(
                f"with_labels needs {self.n_rows} labels, got {y.shape[0]}"
            )
        _require_binary(y)
        y = y.astype(np.int8, copy=False)
        return self._derive(
            c.relabeled(y[start:stop]) for c, start, stop in self._spans()
        )

    def with_protected(self, protected: Sequence[str]) -> "Dataset":
        """New dataset view with a different protected-attribute set."""
        protected = tuple(protected)
        self.schema.require_categorical(protected)
        return self._derive(self._chunks, protected)

    def copy(self) -> "Dataset":
        """Deep copy: every chunk becomes an in-memory chunk of fresh arrays."""
        return self._derive(
            MemoryChunk(
                [np.array(c.column(i)) for i in range(len(self._index))],
                c.labels().copy(),
            )
            for c in self._chunks
        )

    # -- model-facing feature matrix ------------------------------------------
    def feature_matrix(
        self, features: Sequence[str] | None = None, one_hot: bool = True
    ) -> np.ndarray:
        """Dense ``float64`` design matrix over ``features``.

        Categorical columns are one-hot encoded (dropping nothing — the
        classifiers here do not require full rank) unless ``one_hot`` is
        False, in which case raw integer codes are emitted, which is what the
        native-categorical decision tree expects.
        """
        if features is None:
            features = self.schema.names
        self.schema.require(features)
        blocks: list[np.ndarray] = []
        for name in features:
            col = self.schema[name]
            arr = self.column(name)
            if col.is_categorical and one_hot:
                block = np.zeros((self.n_rows, col.cardinality))
                block[np.arange(self.n_rows), arr] = 1.0
                blocks.append(block)
            else:
                blocks.append(arr.astype(np.float64)[:, None])
        if not blocks:
            return np.zeros((self.n_rows, 0))
        return np.hstack(blocks)

    # -- construction helpers --------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Mapping[str, object]],
        label_key: str = "label",
        protected: Sequence[str] = (),
    ) -> "Dataset":
        """Build from an iterable of ``{column: label_or_value}`` dicts.

        Categorical values may be given as labels (strings) or codes (ints).
        """
        rows = list(rows)
        columns: dict[str, list[float | int]] = {c.name: [] for c in schema}
        y: list[int] = []
        for i, row in enumerate(rows):
            if label_key not in row:
                raise DataError(f"row {i} is missing the label key {label_key!r}")
            y.append(int(row[label_key]))  # type: ignore[arg-type]
            for col in schema:
                if col.name not in row:
                    raise DataError(f"row {i} is missing column {col.name!r}")
                value = row[col.name]
                if col.is_categorical and isinstance(value, str):
                    columns[col.name].append(col.code_of(value))
                else:
                    columns[col.name].append(value)  # type: ignore[arg-type]
        arrays = {name: np.asarray(vals) for name, vals in columns.items()}
        return cls(schema, arrays, np.asarray(y), protected)


def concat(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets with identical schemas into one."""
    if not datasets:
        raise DataError("concat requires at least one dataset")
    out = datasets[0]
    for ds in datasets[1:]:
        out = out.append_rows(ds)
    return out


__all__ = [
    "Dataset", "MemoryChunk", "Schema", "Column", "concat", "joint_code_dtype",
]
