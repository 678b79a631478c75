"""Mutable row store backing the streaming auditor.

A :class:`~repro.data.dataset.Dataset` is immutable-by-convention and
copies on every edit, which would make per-delta cost grow with the total
row count.  :class:`StreamState` instead keeps amortised-growth column
arrays plus an ``alive`` mask: a batch's inserts append as slices, its
deletes and relabels are fancy-index writes, and the stable row id of a
row is simply its insertion index — so a delete arriving batches after its
insert still addresses the right row without any id map.

This is the one place a delta is validated.  :meth:`StreamState.validate_batch`
checks a whole :class:`~repro.stream.deltas.DeltaBatch` with array tests
and never mutates, letting the service check a batch *before* journalling
it.  When any delta fails them, the per-delta check runs over the whole
batch instead, raising or reporting a typed
:class:`~repro.errors.DeltaError` naming the column and row, so the service
can quarantine poison deltas without wedging.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.errors import DeltaError
from repro.stream.deltas import (
    Delta,
    DeltaBatch,
    InsertDelta,
    KIND_DELETE,
    KIND_INSERT,
    KIND_RELABEL,
    OP_DELETE,
    OP_INSERT,
    plain_numbers,
    value_matrix,
)
from repro.stream.journal import ROWS_PER_CHUNK

#: Initial per-column capacity; doubles on overflow.
_INITIAL_CAPACITY = 1024

#: Largest finite float64; a numeric value outside ±this is not finite.
_FLOAT_MAX = float(np.finfo(np.float64).max)


class StreamState:
    """Append-only columnar row store with stable ids and an alive mask."""

    def __init__(self, schema: Schema, protected: Sequence[str]):
        self.schema = schema
        self.protected = tuple(protected)
        schema.require_categorical(self.protected)
        #: Per-column ``(name, cardinality or None when numeric)``, read
        #: once here instead of off the schema on every validated insert.
        self._specs = tuple(
            (col.name, col.cardinality if col.is_categorical else None)
            for col in schema
        )
        self._cards = schema.cardinalities(self.protected)
        self._cap = _INITIAL_CAPACITY
        self._cols: dict[str, np.ndarray] = {}
        for col in schema:
            dtype = np.int64 if col.is_categorical else np.float64
            self._cols[col.name] = np.zeros(self._cap, dtype=dtype)
        self._y = np.zeros(self._cap, dtype=np.int8)
        self._alive = np.zeros(self._cap, dtype=bool)
        self._n = 0  # next row id == rows ever inserted

    # -- sizes ---------------------------------------------------------------
    @property
    def next_row_id(self) -> int:
        """The id the next inserted row will receive."""
        return self._n

    @property
    def n_alive(self) -> int:
        """Rows inserted and not (yet) deleted."""
        return int(self._alive[: self._n].sum())

    @property
    def n_alive_positive(self) -> int:
        """Alive rows with label 1."""
        mask = self._alive[: self._n]
        return int(self._y[: self._n][mask].sum())

    # -- validation ----------------------------------------------------------
    def validate(self, delta: Delta) -> None:
        """Raise :class:`~repro.errors.DeltaError` unless ``delta`` applies.

        Pure check — the state is untouched.
        """
        self._check(delta, self._n, {})

    def validate_batch(
        self, deltas: DeltaBatch | Sequence[Delta]
    ) -> tuple[DeltaBatch, list[tuple[Delta, DeltaError]]]:
        """Split a batch into appliable deltas and poison ones, mutating nothing.

        Validation follows the batch's sequential semantics (an insert
        earlier in the batch makes a later delete of that row valid; a
        poisoned insert does not claim a row id), so the surviving deltas
        apply cleanly in order.  A batch that passes the array checks is
        returned as it is; otherwise the per-delta check splits it.
        """
        batch = DeltaBatch.of(deltas)
        if self._applies(batch):
            return batch, []
        valid: list[Delta] = []
        poison: list[tuple[Delta, DeltaError]] = []
        for delta, error in self._checked(batch.deltas()):
            if error is None:
                valid.append(delta)
            else:
                poison.append((delta, error))
        return DeltaBatch.of(valid), poison

    def check_batch(self, batch: DeltaBatch) -> None:
        """Raise the first delta's :class:`~repro.errors.DeltaError` unless
        every delta of ``batch`` applies in order."""
        if self._applies(batch):
            return
        for _delta, error in self._checked(batch.deltas()):
            if error is not None:
                raise error

    def _applies(self, batch: DeltaBatch) -> bool:
        """Whether every delta of ``batch`` applies in order, by array tests.

        True only where the per-delta :meth:`_check` accepts every delta;
        a False sends the batch to that check, which decides.
        """
        if batch.scalar or not self._rows_hold(batch.values, batch.labels):
            return False
        ops, rows = batch.ops, batch.rows
        targets = ops != OP_INSERT
        # At a delete or relabel, the inclusive count of inserts is the
        # count of inserts before it: ids [0, n + that) exist there.
        known = self._n + np.cumsum(~targets)[targets]
        if not ((rows >= 0) & (rows < known)).all():
            return False
        if not self._alive[rows[rows < self._n]].all():
            return False
        # Nothing may follow a delete of the same row: in (row, position)
        # order a delete must end its row's run.
        order = np.lexsort((np.arange(rows.size), rows))
        rows, ops = rows[order], ops[targets][order]
        return not ((ops[:-1] == OP_DELETE) & (rows[1:] == rows[:-1])).any()

    def _rows_hold(self, values: np.ndarray, labels: np.ndarray) -> bool:
        """Whether ``values`` (one row per insert) and ``labels`` are all in
        the schema's domains: codes in range and integral, numeric values
        finite, labels binary."""
        if not ((labels == 0) | (labels == 1)).all():
            return False
        if not len(values):
            return True
        if values.shape[1] != len(self._specs):
            return False
        for column, (_name, cardinality) in zip(values.T, self._specs):
            if cardinality is None:
                # ±max is finite, but an int just past it rounds to it:
                # the per-delta check tells those apart.
                ok = np.abs(column) < _FLOAT_MAX
            else:
                ok = (column >= 0) & (column < cardinality) & (column == np.floor(column))
            if not ok.all():
                return False
        return True

    def _checked(
        self, deltas: Iterable[Delta]
    ) -> Iterator[tuple[Delta, DeltaError | None]]:
        """Each delta with its :class:`~repro.errors.DeltaError`, or None,
        checked in order against the batch so far (the overlay tracks rows
        inserted or deleted earlier in the batch)."""
        next_id = self._n
        overlay: dict[int, bool] = {}
        for delta in deltas:
            try:
                self._check(delta, next_id, overlay)
            except DeltaError as exc:
                yield delta, exc
                continue
            yield delta, None
            if delta.kind == KIND_INSERT:
                overlay[next_id] = True
                next_id += 1
            elif delta.kind == KIND_DELETE:
                overlay[delta.row] = False

    def _check(self, delta: Delta, next_id: int, overlay: dict[int, bool]) -> None:
        """Validate ``delta`` as if ids ``[0, next_id)`` exist and the rows
        in ``overlay`` are alive (True) or deleted (False)."""
        if delta.kind == KIND_INSERT:
            self._validate_insert(delta, next_id)
            return
        row = delta.row
        if not 0 <= row < next_id:
            raise DeltaError(
                f"{delta.kind} targets unknown row {row}; ids "
                f"0..{next_id - 1} have been inserted"
            )
        if not (overlay[row] if row in overlay else self._alive[row]):
            raise DeltaError(
                f"{delta.kind} targets dead row {row} (already deleted)"
            )
        if delta.kind == KIND_RELABEL and delta.label not in (0, 1):
            raise DeltaError(
                f"labels must be binary 0/1; row {row} has {delta.label!r}"
            )

    def _validate_insert(self, delta: InsertDelta, row: int) -> None:
        if len(delta.values) != len(self._specs):
            raise DeltaError(
                f"insert for row {row} has {len(delta.values)} values for "
                f"{len(self._specs)} schema columns {list(self.schema.names)}"
            )
        if delta.label not in (0, 1):
            raise DeltaError(
                f"labels must be binary 0/1; row {row} has {delta.label!r}"
            )
        for (name, cardinality), value in zip(self._specs, delta.values):
            if cardinality is not None:
                # The range test comes first: NaN and ±inf fail it, where
                # int() would raise an untyped ValueError/OverflowError.
                if not 0 <= value < cardinality or int(value) != value:
                    raise DeltaError(
                        f"column {name!r} has code {value!r} at row {row}, "
                        f"outside [0, {cardinality})"
                    )
            elif not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise DeltaError(
                    f"column {name!r} has non-finite value {value!r} at "
                    f"row {row}; features must be finite (no NaN/inf)"
                )

    # -- mutation -------------------------------------------------------------
    def _reserve(self, n_rows: int) -> None:
        """Grow the columns, doubling, until ``n_rows`` rows fit."""
        new_cap = self._cap
        while new_cap < n_rows:
            new_cap *= 2
        if new_cap == self._cap:
            return
        for name, arr in self._cols.items():
            grown = np.zeros(new_cap, dtype=arr.dtype)
            grown[: self._n] = arr[: self._n]
            self._cols[name] = grown
        for attr in ("_y", "_alive"):
            arr = getattr(self, attr)
            grown = np.zeros(new_cap, dtype=arr.dtype)
            grown[: self._n] = arr[: self._n]
            setattr(self, attr, grown)
        self._cap = new_cap

    def insert(self, values: np.ndarray, labels: np.ndarray) -> None:
        """Append validated rows: ``values`` holds one row per insert."""
        start, stop = self._n, self._n + len(labels)
        self._reserve(stop)
        for (name, _cardinality), column in zip(self._specs, values.T):
            self._cols[name][start:stop] = column
        self._y[start:stop] = labels
        self._alive[start:stop] = True
        self._n = stop

    def relabel(self, rows: np.ndarray, labels: np.ndarray) -> None:
        """Set validated relabels; the last label of each row wins."""
        rows, last = _last_per_row(rows)
        self._y[rows] = labels[last]

    def delete(self, rows: np.ndarray) -> None:
        """Tombstone validated deletes."""
        self._alive[rows] = False

    def cell_codes(self, rows: np.ndarray) -> np.ndarray:
        """Each row's count slot: ``label·∏cᵢ + leaf cell`` (``int64``).

        The leaf cell is the mixed-radix code of the row's protected
        values, so one ``bincount`` of the codes gives the negative counts
        of every leaf cell, then the positive ones.
        """
        code = self._y[rows].astype(np.int64)
        for attr, card in zip(self.protected, self._cards):
            code *= card
            code += self._cols[attr][rows]
        return code

    def is_alive(self, rows: np.ndarray) -> np.ndarray:
        """Whether each of ``rows`` is alive."""
        return self._alive[rows]

    # -- persistence ----------------------------------------------------------
    def export_rows(self) -> Iterator[list[list]]:
        """Yield alive rows as ``[row_id, [values...], label]`` chunks.

        Consumed by journal compaction: the rebase segment stores exactly
        the live rows (dead ids stay dead implicitly) in id order,
        :data:`~repro.stream.journal.ROWS_PER_CHUNK` to a chunk, so a
        replay from the rebase reconstructs this state byte-identically.
        Only the chunk being yielded is held as Python lists.
        """
        ids = np.flatnonzero(self._alive[: self._n])
        for start in range(0, ids.size, ROWS_PER_CHUNK):
            rows = ids[start:start + ROWS_PER_CHUNK]
            values = zip(*[self._cols[n][rows].tolist() for n in self.schema.names])
            yield [
                [row, list(row_values), label]
                for row, row_values, label in zip(
                    rows.tolist(), values, self._y[rows].tolist()
                )
            ]

    @classmethod
    def for_rebase(
        cls, schema: Schema, protected: Sequence[str], next_row_id: int
    ) -> "StreamState":
        """An empty state sized for a rebase header's ``next_row``.

        Ids ``[0, next_row_id)`` exist and are dead until
        :meth:`load_rows` writes the rebase's live rows, one ``rows``
        chunk at a time.
        """
        state = cls(schema, protected)
        state._reserve(next_row_id)
        state._n = next_row_id
        return state

    def load_rows(self, rows: Sequence[Sequence]) -> None:
        """Write one rebase chunk of ``[row_id, values, label]`` live rows.

        The chunk is checked with the batch validator's array tests and
        written with array writes; a chunk that fails them is checked row
        by row, which raises the first bad row's message.
        """
        chunk = self._chunk_arrays(rows)
        if chunk is None:
            ids, values, labels = [], [], []
            for row_id, row_values, label in rows:
                row_id = int(row_id)
                if not 0 <= row_id < self._n:
                    raise DeltaError(
                        f"rebase row id {row_id} outside [0, {self._n})"
                    )
                delta = InsertDelta(values=tuple(row_values), label=int(label))
                self._validate_insert(delta, row_id)
                ids.append(row_id)
                values.append(delta.values)
                labels.append(delta.label)
            chunk = (
                np.array(ids, dtype=np.int64),
                value_matrix(values),
                np.array(labels, dtype=np.int64),
            )
        ids, values, labels = chunk
        ids, last = _last_per_row(ids)
        for (name, _cardinality), column in zip(self._specs, values.T):
            self._cols[name][ids] = column[last]
        self._y[ids] = labels[last]
        self._alive[ids] = True

    def _chunk_arrays(
        self, rows: Sequence[Sequence]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """A rebase chunk as ``(ids, values, labels)`` arrays, or None
        unless every row is ``[int, [int | float, ...], int]`` with one
        width and passes the array checks."""
        try:
            if rows and set(map(len, rows)) != {3}:
                return None
            ids, values, labels = zip(*rows) if rows else ((), (), ())
            if not plain_numbers((ids, labels), values):
                return None
            chunk = (
                np.array(ids, dtype=np.int64),
                value_matrix(values),
                np.array(labels, dtype=np.int64),
            )
        except (OverflowError, TypeError, ValueError):
            return None
        ids = chunk[0]
        if not (((ids >= 0) & (ids < self._n)).all() and self._rows_hold(*chunk[1:])):
            return None
        return chunk

    def alive_row_ids(self) -> np.ndarray:
        """Stable ids of the alive rows, in id order.

        Position ``i`` of this array is the row id behind row ``i`` of
        :meth:`materialize`'s dataset — the mapping the remedy-on-drift
        controller uses to translate a positional label diff back into
        :class:`~repro.stream.deltas.RelabelDelta` targets.
        """
        return np.flatnonzero(self._alive[: self._n]).astype(np.int64)

    def materialize(self) -> Dataset:
        """The alive rows as an immutable :class:`Dataset` (id order).

        This is the full-rebuild oracle's input: a from-scratch
        ``identify_ibs`` over this dataset must match the incremental
        engine's streamed reports byte for byte.
        """
        mask = self._alive[: self._n]
        cols = {name: arr[: self._n][mask] for name, arr in self._cols.items()}
        return Dataset(self.schema, cols, self._y[: self._n][mask], self.protected)


def _last_per_row(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
    """``(distinct rows, index of each one's last occurrence in rows)``.

    A fancy-index write with repeated indices leaves which value wins
    undefined; writing each row's last value keeps sequential semantics.
    Rows already strictly increasing (a rebase chunk) are kept as they are.
    """
    if (rows[1:] > rows[:-1]).all():
        return rows, slice(None)
    distinct, first_from_end = np.unique(rows[::-1], return_index=True)
    return distinct, len(rows) - 1 - first_from_end

