"""Mutable row store backing the streaming auditor.

A :class:`~repro.data.dataset.Dataset` is immutable-by-convention and
copies on every edit, which would make per-delta cost grow with the total
row count.  :class:`StreamState` instead keeps amortised-growth column
arrays plus an ``alive`` mask: inserts append in O(1) amortised, deletes
and relabels touch one slot, and the stable row id of a row is simply its
insertion index — so a delete arriving batches after its insert still
addresses the right row without any id map.

This is the one place a delta is validated and applied.  Every mutation
checks against the schema first and raises a typed
:class:`~repro.errors.DeltaError` naming the column and row, so the service
can quarantine poison deltas without wedging; :meth:`StreamState.validate_batch`
never mutates, letting the service check a whole batch *before*
journalling it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.errors import DeltaError
from repro.stream.deltas import (
    Delta,
    DeleteDelta,
    InsertDelta,
    KIND_DELETE,
    KIND_INSERT,
    KIND_RELABEL,
    RelabelDelta,
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
        self, deltas: Sequence[Delta]
    ) -> tuple[list[Delta], list[tuple[Delta, DeltaError]]]:
        """Split a batch into appliable deltas and poison ones, mutating nothing.

        Validation simulates the batch's sequential semantics with an
        overlay (an insert earlier in the batch makes a later delete of
        that row valid; a poisoned insert does not claim a row id), so the
        surviving prefix order applies cleanly.
        """
        next_id = self._n
        overlay: dict[int, bool] = {}
        valid: list[Delta] = []
        poison: list[tuple[Delta, DeltaError]] = []
        for delta in deltas:
            try:
                self._check(delta, next_id, overlay)
            except DeltaError as exc:
                poison.append((delta, exc))
                continue
            valid.append(delta)
            if delta.kind == KIND_INSERT:
                overlay[next_id] = True
                next_id += 1
            elif delta.kind == KIND_DELETE:
                overlay[delta.row] = False
        return valid, poison

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
    def _grow(self) -> None:
        new_cap = self._cap * 2
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

    def _write(self, row: int, delta: InsertDelta) -> None:
        for (name, _cardinality), value in zip(self._specs, delta.values):
            self._cols[name][row] = value
        self._y[row] = delta.label
        self._alive[row] = True

    def insert(self, delta: InsertDelta) -> tuple[int, tuple[int, ...]]:
        """Append a validated insert; returns ``(row_id, protected codes)``."""
        self._validate_insert(delta, self._n)
        if self._n == self._cap:
            self._grow()
        row = self._n
        self._write(row, delta)
        self._n += 1
        return row, self.protected_codes(row)

    def delete(self, delta: DeleteDelta) -> tuple[tuple[int, ...], int]:
        """Tombstone a validated delete; returns ``(protected codes, label)``."""
        self.validate(delta)
        self._alive[delta.row] = False
        return self.protected_codes(delta.row), int(self._y[delta.row])

    def relabel(self, delta: RelabelDelta) -> tuple[tuple[int, ...], int, int]:
        """Apply a validated relabel; returns ``(codes, old_label, new_label)``."""
        self.validate(delta)
        old = int(self._y[delta.row])
        self._y[delta.row] = delta.label
        return self.protected_codes(delta.row), old, int(delta.label)

    def protected_codes(self, row: int) -> tuple[int, ...]:
        """The row's cell in the protected-attribute space (leaf coords)."""
        return tuple(int(self._cols[a][row]) for a in self.protected)

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
        while state._cap < max(next_row_id, 1):
            state._grow()
        state._n = next_row_id
        return state

    def load_rows(self, rows: Sequence[Sequence]) -> None:
        """Write one rebase chunk of ``[row_id, values, label]`` live rows."""
        for row_id, values, label in rows:
            row_id = int(row_id)
            if not 0 <= row_id < self._n:
                raise DeltaError(f"rebase row id {row_id} outside [0, {self._n})")
            delta = InsertDelta(values=tuple(values), label=int(label))
            self._validate_insert(delta, row_id)
            self._write(row_id, delta)

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
