"""Typed row-edit deltas accepted by the streaming audit engine.

A delta is one of three row-level edits over the audited table:

* :class:`InsertDelta` — append a new row (per-schema-column values plus a
  binary label); the engine assigns the next stable row id;
* :class:`DeleteDelta` — tombstone an existing row by its stable id;
* :class:`RelabelDelta` — flip the label of an existing row.

Row ids are insertion sequence numbers: the ``i``-th inserted row has id
``i`` forever, deletes never renumber.  Deltas are immutable.  Producers
send them in a compact JSON list form (``["i", [values...], label]`` /
``["d", row]`` / ``["r", row, label]``), which dead letters also keep;
:func:`delta_from_record` is the strict inverse and raises
:class:`~repro.errors.DeltaError` on any malformed record — structural
garbage never reaches the engine untyped.

Inside the stream a micro-batch travels as one :class:`DeltaBatch`, a
struct of arrays (op codes, target rows, labels, an insert-value matrix):
it is validated with array checks, journalled as one columnar record and
applied with array writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.errors import DeltaError

KIND_INSERT = "insert"
KIND_DELETE = "delete"
KIND_RELABEL = "relabel"
KINDS = (KIND_INSERT, KIND_DELETE, KIND_RELABEL)

#: One-byte journal tags for the compact list form.
TAG_INSERT = "i"
TAG_DELETE = "d"
TAG_RELABEL = "r"

#: A :class:`DeltaBatch`'s op codes: the ASCII bytes of the journal tags.
OP_INSERT = ord(TAG_INSERT)
OP_DELETE = ord(TAG_DELETE)
OP_RELABEL = ord(TAG_RELABEL)


@dataclass(frozen=True)
class InsertDelta:
    """Append one row: per-schema-column values (schema order) plus label."""

    values: tuple[float, ...]
    label: int

    kind = KIND_INSERT

    def to_record(self) -> list:
        """Compact JSON-safe journal form ``["i", [values...], label]``."""
        return [TAG_INSERT, list(self.values), int(self.label)]


@dataclass(frozen=True)
class DeleteDelta:
    """Tombstone the row with stable id ``row``."""

    row: int

    kind = KIND_DELETE

    def to_record(self) -> list:
        """Compact JSON-safe journal form ``["d", row]``."""
        return [TAG_DELETE, int(self.row)]


@dataclass(frozen=True)
class RelabelDelta:
    """Set the label of the row with stable id ``row`` to ``label``."""

    row: int
    label: int

    kind = KIND_RELABEL

    def to_record(self) -> list:
        """Compact JSON-safe journal form ``["r", row, label]``."""
        return [TAG_RELABEL, int(self.row), int(self.label)]


#: Any of the three delta types (for annotations).
Delta = InsertDelta | DeleteDelta | RelabelDelta


def _require_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DeltaError(f"{what} must be an integer, got {value!r}")
    return value


def delta_from_record(record: object) -> Delta:
    """Parse one compact journal record back into a typed delta.

    The strict inverse of each delta's ``to_record``; raises
    :class:`~repro.errors.DeltaError` on unknown tags, wrong arity, or
    non-numeric fields.  Schema-level validation (code ranges, label
    domain, row liveness) happens later against the stream state — this
    guard only ensures the record is structurally a delta.
    """
    if not isinstance(record, (list, tuple)) or not record:
        raise DeltaError(f"delta record must be a non-empty list, got {record!r}")
    tag = record[0]
    if tag == TAG_INSERT:
        if len(record) != 3:
            raise DeltaError(
                f"insert record must be [tag, values, label], got {record!r}"
            )
        values = record[1]
        if not isinstance(values, (list, tuple)):
            raise DeltaError(
                f"insert values must be a list, got {values!r}"
            )
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DeltaError(f"insert value {v!r} is not numeric")
        label = _require_int(record[2], "insert label")
        return InsertDelta(values=tuple(values), label=label)
    if tag == TAG_DELETE:
        if len(record) != 2:
            raise DeltaError(f"delete record must be [tag, row], got {record!r}")
        return DeleteDelta(row=_require_int(record[1], "delete row"))
    if tag == TAG_RELABEL:
        if len(record) != 3:
            raise DeltaError(
                f"relabel record must be [tag, row, label], got {record!r}"
            )
        return RelabelDelta(
            row=_require_int(record[1], "relabel row"),
            label=_require_int(record[2], "relabel label"),
        )
    raise DeltaError(
        f"unknown delta tag {tag!r}; expected one of "
        f"{(TAG_INSERT, TAG_DELETE, TAG_RELABEL)}"
    )


def deltas_from_records(records: Sequence[object]) -> list[Delta]:
    """Parse a batch's list of compact records, failing on the first bad one.

    The raised :class:`~repro.errors.DeltaError` names the zero-based
    position of the offending record so a poisoned batch is diagnosable.
    """
    out: list[Delta] = []
    for i, record in enumerate(records):
        try:
            out.append(delta_from_record(record))
        except DeltaError as exc:
            raise DeltaError(f"record {i}: {exc}") from exc
    return out


_INTS = frozenset((int,))
_NUMBERS = frozenset((int, float))


def plain_numbers(
    ints: Sequence[Sequence[object]], values: Sequence[Sequence[object]]
) -> bool:
    """Whether every item of each of ``ints`` is an ``int`` and every value
    of each row of ``values`` an ``int`` or ``float``: the inputs whose
    arrays the array checks judge exactly as the per-delta checks do."""
    return all(set(map(type, items)) <= _INTS for items in ints) and (
        set(map(type, chain.from_iterable(values))) <= _NUMBERS
    )


def value_matrix(values: Sequence[Sequence[object]]) -> np.ndarray:
    """Rows of values as a ``float64`` matrix, one row per entry.

    Raises ``ValueError`` on ragged rows and ``OverflowError`` on an int
    past float64.
    """
    widths = set(map(len, values))
    if len(widths) > 1:
        raise ValueError(f"rows of values have several widths {sorted(widths)}")
    width = widths.pop() if widths else 0
    return np.fromiter(
        chain.from_iterable(values), dtype=np.float64, count=len(values) * width
    ).reshape(len(values), width)


@dataclass(frozen=True, eq=False)
class DeltaBatch:
    """One micro-batch of deltas as a struct of arrays.

    ``ops`` holds one op code (:data:`OP_INSERT`, :data:`OP_DELETE`,
    :data:`OP_RELABEL`) per delta, in batch order.  ``rows`` holds the
    target row of each delete and relabel and ``labels`` the label of each
    insert and relabel, both in batch order (``int64``); ``values`` holds
    the inserts' values, one ``float64`` row per insert in schema order.

    ``source`` is the deltas the batch was built from (None when it was
    read from the journal); dead letters quarantine those objects, so a
    poisoned delta is reported exactly as its producer sent it.
    ``scalar`` marks a batch with a row, label or value that is not a plain
    ``int`` (values: ``int`` or ``float``), or that no array holds: only
    the per-delta checks judge such a batch, so odd inputs behave as they
    always have.
    """

    ops: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    values: np.ndarray
    source: tuple[Delta, ...] | None = None
    scalar: bool = False

    def __len__(self) -> int:
        return len(self.ops)

    @classmethod
    def of(cls, deltas: "DeltaBatch | Sequence[Delta]") -> "DeltaBatch":
        """``deltas`` as a batch; a batch is returned as it is."""
        if isinstance(deltas, DeltaBatch):
            return deltas
        source = tuple(deltas)
        ops = bytearray()
        rows: list = []
        labels: list = []
        values: list = []
        for delta in source:
            kind = delta.kind
            if kind == KIND_INSERT:
                ops.append(OP_INSERT)
                values.append(delta.values)
                labels.append(delta.label)
            elif kind == KIND_DELETE:
                ops.append(OP_DELETE)
                rows.append(delta.row)
            else:
                ops.append(OP_RELABEL)
                rows.append(delta.row)
                labels.append(delta.label)
        plain = plain_numbers((rows, labels), values)
        try:
            arrays = (
                np.array(rows, dtype=np.int64),
                np.array(labels, dtype=np.int64),
                value_matrix(values),
            )
        except (OverflowError, TypeError, ValueError):
            # An int past int64/float64 or a ragged insert: the per-delta
            # checks reject it, so the arrays are never written.
            empty = np.empty(0, dtype=np.int64)
            arrays, plain = (empty, empty, np.empty((0, 0))), False
        return cls(
            np.frombuffer(bytes(ops), dtype=np.uint8), *arrays,
            source=source, scalar=not plain,
        )

    def deltas(self) -> tuple[Delta, ...]:
        """The batch as delta objects: its source, or rebuilt from the arrays."""
        if self.source is not None:
            return self.source
        rows = iter(self.rows.tolist())
        labels = iter(self.labels.tolist())
        values = iter(self.values.tolist())
        out: list[Delta] = []
        for op in self.ops.tolist():
            if op == OP_INSERT:
                out.append(InsertDelta(tuple(next(values)), next(labels)))
            elif op == OP_DELETE:
                out.append(DeleteDelta(next(rows)))
            else:
                out.append(RelabelDelta(next(rows), next(labels)))
        return tuple(out)

    def to_columns(self, categorical: Sequence[bool]) -> dict:
        """The journal's columnar form of the batch.

        ``{"ops": "iid…", "rows": [...], "labels": [...], "values":
        [[col0...], ...]}``: one list per schema column, categorical
        columns (``categorical[j]`` true) as ints and the rest as floats.
        """
        values = self.values.reshape(len(self.values), len(categorical))
        return {
            "labels": self.labels.tolist(),
            "ops": self.ops.tobytes().decode("ascii"),
            "rows": self.rows.tolist(),
            "values": [
                (column.astype(np.int64) if is_code else column).tolist()
                for column, is_code in zip(values.T, categorical)
            ],
        }

    @classmethod
    def from_columns(cls, columns: object) -> "DeltaBatch":
        """Inverse of :meth:`to_columns`; raises :class:`~repro.errors.DeltaError`
        on a malformed record."""
        try:
            ops = np.frombuffer(columns["ops"].encode("ascii"), dtype=np.uint8)
            rows = np.array(columns["rows"], dtype=np.int64)
            labels = np.array(columns["labels"], dtype=np.int64)
            values = np.array(columns["values"], dtype=np.float64).T
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise DeltaError(f"malformed columnar batch: {exc!r}") from exc
        n_insert = int(np.count_nonzero(ops == OP_INSERT))
        n_delete = int(np.count_nonzero(ops == OP_DELETE))
        if (
            n_insert + n_delete + int(np.count_nonzero(ops == OP_RELABEL)) != len(ops)
            or rows.shape != (len(ops) - n_insert,)
            or labels.shape != (len(ops) - n_delete,)
            or values.ndim != 2
            or len(values) != n_insert
        ):
            raise DeltaError(
                f"malformed columnar batch: {len(ops)} ops, {rows.size} rows, "
                f"{labels.size} labels, values of shape {values.shape}"
            )
        return cls(ops, rows, labels, values)
