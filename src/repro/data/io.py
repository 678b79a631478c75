"""CSV round-trip for :class:`~repro.data.Dataset`.

A dataset is persisted as a plain CSV whose first row is the header
(column names plus a trailing ``label`` column).  Categorical cells are
written as their string labels, numeric cells as decimal floats.  Reading
requires the target :class:`~repro.data.schema.Schema` so the categorical
domains (and their order, which drives neighbour distances) are explicit
rather than inferred.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.errors import DataError, InternalError, SchemaError

LABEL_COLUMN = "label"

#: Environment variable arming one crash site for one process: a JSON
#: object ``{"site", "key", "action"}`` read by :func:`chaos_point`.
CHAOS_ENV = "REPRO_CHAOS"


def chaos_point(site: str, key: str) -> None:
    """Run the chaos action armed for ``site`` and ``key``, if any.

    The crash sites of the chaos drills (``stream.append``,
    ``store.shard``, ``serve.fetch``) call this at the instant a crash is
    to be proven recoverable.  ``action`` is a
    :class:`~repro.resilience.faults.CrashFault` /
    :class:`~repro.resilience.faults.HangFault` worker descriptor.  Unarmed,
    this is one environment lookup, and ``repro.resilience`` is imported
    only when an armed plan matches.
    """
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    try:
        plan = json.loads(spec)
        armed = plan["site"] == site and plan["key"] == key
        action = plan["action"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InternalError(f"malformed {CHAOS_ENV} plan {spec!r}: {exc!r}") from exc
    if armed:
        from repro.resilience.faults import execute_chaos_action

        execute_chaos_action(action)


def fsync_dir(path: str | Path) -> None:
    """fsync the directory ``path``, making a rename or new entry in it durable.

    A file's own fsync covers its bytes, not the directory entry that names
    it; without this a power cut can undo a rename that already returned.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The content is first written to a temporary file in the same directory
    (so the rename never crosses a filesystem boundary), fsynced, then moved
    over ``path`` in one atomic step, and the directory is fsynced.  A
    process killed mid-write therefore leaves either the old file or the
    new one — never a truncated mix.  Checkpoints, baselines, schemas and
    audit trails all go through here.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
        fsync_dir(path.parent)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)


def atomic_write_json(path: str | Path, payload: object, indent: int = 2) -> None:
    """Serialise ``payload`` to JSON and write it atomically via
    :func:`atomic_write_text` (with a trailing newline)."""
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def canonical_json(payload: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    The one encoding behind every hash and byte-compared document: journal
    record shas, store manifest digests, gateway response bodies and stream
    digests.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` (including labels) to ``path`` as CSV."""
    path = Path(path)
    names = dataset.schema.names
    decoded = {}
    for name in names:
        col = dataset.schema[name]
        if col.is_categorical:
            decoded[name] = dataset.labels_of(name)
        else:
            decoded[name] = dataset.column(name)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [LABEL_COLUMN])
        for i in range(dataset.n_rows):
            row = [decoded[name][i] for name in names]
            writer.writerow(row + [int(dataset.y[i])])


MISSING_TOKENS = ("", "?", "NA", "N/A", "null", "None")


def read_csv(
    path: str | Path,
    schema: Schema,
    protected: Sequence[str] = (),
    on_bad_value: str = "error",
    missing_tokens: Sequence[str] = MISSING_TOKENS,
) -> Dataset:
    """Read a CSV written by :func:`write_csv` back into a dataset.

    ``on_bad_value`` controls what happens to rows whose cells are missing
    (one of ``missing_tokens``), outside a categorical domain, or not
    parseable as a number:

    * ``"error"`` (default) — raise :class:`~repro.errors.DataError` with
      the offending line number;
    * ``"drop"`` — skip such rows, reproducing the paper's "removing any
      missing values" preprocessing step.
    """
    if on_bad_value not in ("error", "drop"):
        raise DataError(
            f"on_bad_value must be 'error' or 'drop', got {on_bad_value!r}"
        )
    missing = set(missing_tokens)
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        expected = list(schema.names) + [LABEL_COLUMN]
        if header != expected:
            raise DataError(
                f"{path} header {header} does not match schema columns {expected}"
            )
        columns: dict[str, list[float]] = {name: [] for name in schema.names}
        y: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise DataError(
                    f"{path}:{line_no}: expected {len(expected)} fields, got {len(row)}"
                )
            try:
                parsed: dict[str, float] = {}
                for name, cell in zip(schema.names, row):
                    if cell in missing:
                        raise DataError(f"{path}:{line_no}: missing value in {name!r}")
                    col = schema[name]
                    if col.is_categorical:
                        parsed[name] = col.code_of(cell)
                    else:
                        try:
                            parsed[name] = float(cell)
                        except ValueError:
                            raise DataError(
                                f"{path}:{line_no}: {cell!r} is not numeric ({name!r})"
                            ) from None
                label_cell = row[-1]
                if label_cell in missing:
                    raise DataError(f"{path}:{line_no}: missing label")
                label = int(label_cell)
            except (DataError, SchemaError, ValueError):
                if on_bad_value == "drop":
                    continue
                raise
            for name, value in parsed.items():
                columns[name].append(value)
            y.append(label)
    arrays = {name: np.asarray(vals) for name, vals in columns.items()}
    return Dataset(schema, arrays, np.asarray(y), protected)
