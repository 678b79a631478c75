"""Shared fixtures: small deterministic datasets used across the suite."""

from __future__ import annotations

import os
import stat
from pathlib import Path

import numpy as np
import pytest

from repro.data import Column, Dataset, Schema, schema_from_domains
from repro.data.synth import load_compas


@pytest.fixture
def toy_schema() -> Schema:
    """Two protected attributes (3 x 2 values) plus one numeric feature."""
    return Schema(
        [
            Column("age", "categorical", ("young", "mid", "old")),
            Column("sex", "categorical", ("m", "f")),
            Column("score", "numeric"),
        ]
    )


@pytest.fixture
def toy_dataset(toy_schema) -> Dataset:
    """Deterministic 12-row dataset with a known biased cell.

    Cell (age=young, sex=m) is all-positive (4 rows), everything else is
    balanced, so it is the canonical biased region in the small tests.
    """
    age = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    sex = np.array([0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1])
    score = np.linspace(-1.0, 1.0, 12)
    y = np.array([1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1])
    return Dataset(
        toy_schema,
        {"age": age, "sex": sex, "score": score},
        y,
        protected=("age", "sex"),
    )


@pytest.fixture
def biased_dataset() -> Dataset:
    """Larger seeded dataset (2 protected attrs) with one planted skew.

    300 rows; cell (a=0, b=0) is ~90% positive while the rest are ~30%
    positive, guaranteeing a sizeable IBS at reasonable k.
    """
    rng = np.random.default_rng(42)
    n = 300
    schema = schema_from_domains({"a": ("a0", "a1", "a2"), "b": ("b0", "b1")})
    a = rng.integers(0, 3, size=n)
    b = rng.integers(0, 2, size=n)
    p = np.where((a == 0) & (b == 0), 0.9, 0.3)
    y = (rng.random(n) < p).astype(int)
    return Dataset(schema, {"a": a, "b": b}, y, protected=("a", "b"))


@pytest.fixture
def dir_fsynced(monkeypatch):
    """Record every directory ``os.fsync`` with the entries it held then.

    Returns ``check(path)``: True when ``path``'s parent directory was
    fsynced at a moment ``path`` already existed in it, i.e. after the
    rename or file creation that published ``path``.
    """
    synced: list[tuple[int, frozenset[str]]] = []
    real_fsync = os.fsync

    def fsync(fd: int) -> None:
        real_fsync(fd)
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            synced.append((info.st_ino, frozenset(os.listdir(fd))))

    monkeypatch.setattr(os, "fsync", fsync)

    def check(path) -> bool:
        path = Path(path)
        parent = os.stat(path.parent).st_ino
        return any(ino == parent and path.name in names for ino, names in synced)

    return check


@pytest.fixture(scope="session")
def compas_small() -> Dataset:
    """A 2,000-row COMPAS-like dataset reused by slower integration tests."""
    return load_compas(n_rows=2000, seed=7)
