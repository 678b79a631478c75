"""Unit tests for the sharded dataset store (repro.data.store).

Manifest round-trip and corruption detection, the registry lifecycle
(materialize / list / verify / prune / leases), crash atomicity of the
writer, copy-on-write shard reuse, StoreRef shipping, single-row edit
routing, and the ``repro data`` CLI verbs.  The sharded==in-memory equivalence
*properties* live in tests/test_properties_store.py.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import identify_ibs
from repro.data import Column, Dataset, Schema
from repro.data.dataset import MemoryChunk
from repro.data.store import (
    Registry,
    ShardedDataset,
    StoreRef,
    clear_ref_cache,
    default_root,
    iter_chunks,
    open_store_ref,
    read_manifest,
    schema_digest,
    synth_chunks,
    verify_store,
    write_store,
)
from repro.data.store.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    build_manifest,
    canonical_json,
    file_sha256,
    load_array,
    manifest_digest,
    write_manifest,
)
from repro.data.store.registry import LEASE_DIR, TMP_PREFIX
from repro.data.store.sharded import DiskShard
from repro.data.synth import load_adult
from repro.errors import (
    DataError,
    ExperimentError,
    SchemaError,
    StoreCorruptionError,
    StoreError,
)
from repro.experiments import sharded_region_counts
from repro.resilience import (
    BACKEND_PROCESS,
    CellExecutor,
    DatasetRef,
    WorkerPool,
    published_segments,
)
from tests.test_ibs import reports_digest


def small_dataset(n_rows: int = 23, seed: int = 7) -> Dataset:
    """Two protected categoricals + one numeric, deterministic."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("age", "categorical", ("young", "mid", "old")),
            Column("sex", "categorical", ("m", "f")),
            Column("score", "numeric"),
        ]
    )
    return Dataset(
        schema,
        {
            "age": rng.integers(0, 3, size=n_rows),
            "sex": rng.integers(0, 2, size=n_rows),
            "score": rng.normal(size=n_rows),
        },
        rng.integers(0, 2, size=n_rows),
        protected=("age", "sex"),
    )


def store_of(tmp_path, dataset: Dataset, shard_rows: int):
    path = tmp_path / "store"
    write_store(path, iter_chunks(dataset, shard_rows), shard_rows)
    return path


#: A format-1 store (int64 codes) written by the format-1 writer: 60 rows
#: in 3 shards over protected ``a`` (2 values), ``b`` (3), ``c`` (4) and a
#: numeric ``score``.
V1_STORE = Path(__file__).parent / "fixtures" / "store_v1"
#: ``rows_digest`` of the fixture as the format-1 reader saw it.
V1_ROWS_DIGEST = "9390f4e2eb98a2e441b830f4d45bb4ecc1194a0406bccbe878885e2329380f6e"
#: ``identify_ibs(store, 0.2, k=2)`` on the fixture under the format-1 reader.
V1_IBS = (35, "2a2a5f1cedfc26d30fe72e000aafaae51debc1cd6ef2b42fdf28ea04fcff8e30")


def rows_digest(dataset: Dataset) -> str:
    """sha256 over every column's bytes (by name) and the labels."""
    digest = hashlib.sha256()
    for name in dataset.schema.names:
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(dataset.column(name)).tobytes())
    digest.update(np.ascontiguousarray(dataset.y).tobytes())
    return digest.hexdigest()


def assert_counts_equal(a: Dataset, b: Dataset, attrs) -> None:
    pos, neg, shape = a.region_counts(attrs)
    bpos, bneg, bshape = b.region_counts(attrs)
    assert bshape == shape
    assert bpos.dtype == pos.dtype == np.int64 and bneg.dtype == neg.dtype
    assert bpos.tobytes() == pos.tobytes() and bneg.tobytes() == neg.tobytes()


def overwrite_value(path: Path, row: int, value: int) -> None:
    """Set one value of a ``.npy`` file in place (same dtype and shape)."""
    arr = np.load(path)
    arr[row] = value
    np.save(path, arr)


class TestManifest:
    def test_round_trip(self, tmp_path):
        ds = small_dataset()
        path = store_of(tmp_path, ds, shard_rows=10)
        manifest = read_manifest(path)
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["n_rows"] == 23
        assert manifest["shard_rows"] == 10
        assert [s["dir"] for s in manifest["shards"]] == [
            "shard-00000", "shard-00001", "shard-00002",
        ]
        assert [(s["start"], s["stop"]) for s in manifest["shards"]] == [
            (0, 10), (10, 20), (20, 23),
        ]
        assert manifest["schema_sha256"] == schema_digest(
            ds.schema, ds.protected
        )
        assert manifest["column_dtypes"] == ["uint8", "uint8", "float64"]
        # every shard records both columns' files plus labels, with sizes
        for entry in manifest["shards"]:
            assert set(entry["files"]) == {"c0000.npy", "c0001.npy",
                                           "c0002.npy", "y.npy"}
            for meta in entry["files"].values():
                assert meta["nbytes"] > 0 and len(meta["sha256"]) == 64

    def test_digests_are_deterministic(self):
        ds = small_dataset()
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
        assert schema_digest(ds.schema, ds.protected) == schema_digest(
            ds.schema, ds.protected
        )
        manifest = build_manifest(ds.schema, ds.protected, [], 10)
        assert manifest_digest(manifest) == manifest_digest(dict(manifest))

    def test_missing_manifest_is_a_typed_error(self, tmp_path):
        with pytest.raises(StoreError, match="is not a dataset store"):
            read_manifest(tmp_path)

    def test_bad_json_is_corruption(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(StoreCorruptionError, match="not valid JSON"):
            read_manifest(tmp_path)

    def test_unknown_format_version_is_rejected(self, tmp_path):
        ds = small_dataset()
        path = store_of(tmp_path, ds, shard_rows=10)
        manifest = read_manifest(path)
        manifest["format_version"] = 99
        write_manifest(path, manifest)
        with pytest.raises(StoreError, match="format_version 99"):
            ShardedDataset.open(path)

    def test_tampered_schema_hash_is_corruption(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        manifest = read_manifest(path)
        manifest["schema_sha256"] = "0" * 64
        write_manifest(path, manifest)
        with pytest.raises(StoreCorruptionError, match="schema_sha256"):
            read_manifest(path)

    def test_column_dtypes_must_match_the_schema(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        manifest = read_manifest(path)
        manifest["column_dtypes"][0] = "int64"
        write_manifest(path, manifest)
        with pytest.raises(StoreCorruptionError, match="column_dtypes"):
            read_manifest(path)
        del manifest["column_dtypes"]
        write_manifest(path, manifest)
        with pytest.raises(StoreCorruptionError, match="missing 'column_dtypes'"):
            read_manifest(path)

    def test_non_contiguous_ranges_are_corruption(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        manifest = read_manifest(path)
        manifest["shards"][1]["start"] = 11
        write_manifest(path, manifest)
        with pytest.raises(StoreCorruptionError, match="previous shard ended"):
            read_manifest(path)


class TestVerify:
    def test_clean_store_report(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        report = verify_store(path)
        assert report["n_rows"] == 23
        assert report["n_shards"] == 3
        assert report["files_checked"] == 12  # 4 files x 3 shards
        assert report["bytes_checked"] > 0

    def test_bit_flip_names_the_shard_file(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        victim = path / "shard-00001" / "c0000.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(
            StoreCorruptionError, match=r"shard-00001/c0000\.npy sha256 mismatch"
        ):
            verify_store(path)

    def test_truncation_names_the_shard_file(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        victim = path / "shard-00002" / "y.npy"
        victim.write_bytes(victim.read_bytes()[:-4])
        with pytest.raises(
            StoreCorruptionError, match=r"shard-00002/y\.npy has \d+ bytes"
        ):
            verify_store(path)

    def test_missing_file_names_the_shard_file(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        (path / "shard-00000" / "c0001.npy").unlink()
        with pytest.raises(
            StoreCorruptionError, match=r"shard-00000/c0001\.npy is missing"
        ):
            verify_store(path)

    def test_load_array_rejects_non_npy(self, tmp_path):
        junk = tmp_path / "junk.npy"
        junk.write_bytes(b"not an npy file at all.........")
        with pytest.raises(StoreCorruptionError, match="not a valid"):
            load_array(junk)
        with pytest.raises(StoreCorruptionError, match="is missing"):
            load_array(tmp_path / "absent.npy")


class TestFormatVersions:
    """Format 2 writes narrow categorical files; format-1 stores still open,
    verify and count, and a code out of range fails naming its file."""

    @pytest.fixture
    def v1_store(self, tmp_path):
        path = tmp_path / "legacy"
        shutil.copytree(V1_STORE, path)
        return path

    def test_v1_store_opens_verifies_and_counts(self, v1_store, capsys):
        assert read_manifest(v1_store)["format_version"] == 1
        assert verify_store(v1_store)["files_checked"] == 15
        assert main(["data", "verify", "legacy", "--root", str(v1_store.parent)]) == 0
        assert "ok" in capsys.readouterr().out
        with ShardedDataset.open(v1_store) as store:
            assert rows_digest(store) == V1_ROWS_DIGEST
            memory = store.to_dataset()
            assert_counts_equal(memory, store, store.protected)
            assert_counts_equal(memory, store, ("c", "a"))
            reports = identify_ibs(store, 0.2, k=2)
            assert reports == identify_ibs(memory, 0.2, k=2)
            assert (len(reports), reports_digest(reports)) == V1_IBS

    def test_v2_round_trip_with_a_uint16_column(self, tmp_path):
        rng = np.random.default_rng(5)
        schema = Schema([
            Column("sex", "categorical", ("m", "f")),
            Column("zip", "categorical", tuple(f"z{i}" for i in range(300))),
            Column("score", "numeric"),
        ])
        n = 500
        data = Dataset(
            schema,
            {
                "sex": rng.integers(0, 2, n),
                "zip": np.r_[299, 0, rng.integers(0, 300, n - 2)],
                "score": rng.normal(size=n),
            },
            rng.integers(0, 2, n),
            protected=("sex", "zip"),
        )
        path = store_of(tmp_path, data, shard_rows=150)
        manifest = read_manifest(path)
        assert manifest["format_version"] == FORMAT_VERSION == 2
        assert manifest["column_dtypes"] == ["uint8", "uint16", "float64"]
        shard = path / "shard-00000"
        assert [load_array(shard / f"c000{i}.npy").dtype for i in range(3)] == [
            np.uint8, np.uint16, np.float64,
        ]
        with ShardedDataset.open(path) as store:
            for name in schema.names:
                assert store.column(name).dtype == data.column(name).dtype
            assert rows_digest(store) == rows_digest(data)
            assert rows_digest(store.to_dataset()) == rows_digest(data)
            assert_counts_equal(data, store, ("sex", "zip"))
            assert_counts_equal(data, store, ("zip",))
            assert np.array_equal(store.joint_codes(("zip", "sex"))[0],
                                  data.joint_codes(("zip", "sex"))[0])
            assert identify_ibs(store, 0.3, k=3) == identify_ibs(data, 0.3, k=3)

    def test_v1_rewritten_is_v2_and_counts_the_same(self, v1_store, tmp_path):
        with ShardedDataset.open(v1_store) as legacy:
            path = tmp_path / "v2"
            write_store(path, iter_chunks(legacy, 20), 20)
            with ShardedDataset.open(path) as store:
                assert read_manifest(path)["column_dtypes"] == [
                    "uint8", "uint8", "uint8", "float64",
                ]
                assert rows_digest(store) == V1_ROWS_DIGEST
                assert_counts_equal(legacy, store, legacy.protected)

        def first_shard_bytes(store_path):
            files = read_manifest(store_path)["shards"][0]["files"]
            return sum(meta["nbytes"] for meta in files.values())

        assert first_shard_bytes(path) < first_shard_bytes(v1_store)

    @pytest.mark.parametrize("version, code", [(1, 7), (1, -1), (2, 7)])
    def test_out_of_range_code_names_the_shard_file(
        self, v1_store, tmp_path, version, code
    ):
        path = v1_store
        if version == 2:
            path = store_of(tmp_path, ShardedDataset.open(v1_store), shard_rows=20)
        overwrite_value(path / "shard-00001" / "c0000.npy", 3, code)
        with ShardedDataset.open(path) as store:
            match = rf"shard-00001/c0000\.npy has code {code} at row 3, outside \[0, 2\)"
            with pytest.raises(StoreCorruptionError, match=match):
                identify_ibs(store, 0.2, k=2)
            with pytest.raises(StoreCorruptionError, match=match):
                store.column("a")
            # Counts that never read the column still run.
            store.region_counts(("b", "c"))

    def test_out_of_range_label_names_the_label_file(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        overwrite_value(path / "shard-00002" / "y.npy", 1, 2)
        with ShardedDataset.open(path) as store:
            with pytest.raises(
                StoreCorruptionError, match=r"shard-00002/y\.npy has label 2 at row 1"
            ):
                store.region_counts(("age",))
            relabeled = store.with_labels(np.zeros(len(store), dtype=np.int8))
            pos, neg, __ = relabeled.region_counts(("age",))
            assert pos.sum() == 0 and neg.sum() == len(store)


class TestWriter:
    def test_refuses_to_clobber_without_overwrite(self, tmp_path):
        ds = small_dataset()
        path = store_of(tmp_path, ds, shard_rows=10)
        with pytest.raises(StoreError, match="already exists"):
            write_store(path, iter_chunks(ds, 10), 10)
        write_store(path, iter_chunks(ds, 5), 5, overwrite=True)
        assert read_manifest(path)["shard_rows"] == 5

    def test_parent_is_fsynced_after_the_rename(self, tmp_path, dir_fsynced):
        path = tmp_path / "store"
        write_store(path, iter_chunks(small_dataset(), 10), 10)
        assert dir_fsynced(path)

    def test_refuses_zero_chunks(self, tmp_path):
        with pytest.raises(StoreError, match="zero chunks"):
            write_store(tmp_path / "empty", iter([]), 10)
        assert not (tmp_path / "empty").exists()

    def test_refuses_mixed_schemas(self, tmp_path):
        a = small_dataset()
        b = load_adult(n_rows=8, seed=0)
        with pytest.raises(StoreError, match="different schema"):
            write_store(tmp_path / "mixed", iter([a, b]), 100)
        # the torn .tmp-* dir is cleaned up by the writer itself
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_store_on_writer_failure(self, tmp_path):
        def chunks():
            yield small_dataset()
            raise RuntimeError("generator blew up")

        with pytest.raises(RuntimeError):
            write_store(tmp_path / "torn", chunks(), 100)
        # manifest was never written, so the target path does not exist
        # and the only residue is a .tmp-* sibling a registry would sweep.
        assert not (tmp_path / "torn").exists()
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert all(name.startswith(TMP_PREFIX) for name in leftovers)


class TestShardedSurface:
    def test_open_matches_source(self, tmp_path):
        ds = small_dataset()
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=7))
        assert len(sharded) == ds.n_rows
        assert sharded.n_shards == 4
        assert sharded.shard_ranges == ((0, 7), (7, 14), (14, 21), (21, 23))
        assert np.array_equal(sharded.y, ds.y)
        assert sharded.n_positive == ds.n_positive
        for name in ("age", "sex", "score"):
            assert np.array_equal(sharded.column(name), ds.column(name))
        with pytest.raises(SchemaError, match="unknown column 'zip'"):
            sharded.column("zip")

    def test_from_dataset_round_trip(self):
        ds = small_dataset()
        sharded = ShardedDataset.from_dataset(ds, shard_rows=5)
        back = sharded.to_dataset()
        assert back.schema == ds.schema
        assert np.array_equal(back.y, ds.y)
        for name in ds.schema.names:
            assert np.array_equal(back.column(name), ds.column(name))

    @pytest.mark.parametrize("shard_rows", [1, 2, 23, 1000])
    def test_edge_shard_sizes(self, shard_rows):
        ds = small_dataset()
        sharded = ShardedDataset.from_dataset(ds, shard_rows=shard_rows)
        pos, neg, shape = ds.region_counts(("age", "sex"))
        spos, sneg, sshape = sharded.region_counts(("age", "sex"))
        assert sshape == shape
        assert np.array_equal(spos, pos) and np.array_equal(sneg, neg)

    def test_bad_shard_rows_rejected(self):
        with pytest.raises(StoreError, match="shard_rows"):
            ShardedDataset.from_dataset(small_dataset(), shard_rows=0)

    def test_shard_region_counts_is_a_partial_sum(self, tmp_path):
        ds = small_dataset(n_rows=40)
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
        pos, neg, shape = sharded.region_counts(("age", "sex"))
        halves = [
            sharded.shard_region_counts(range(0, 2), ("age", "sex")),
            sharded.shard_region_counts(range(2, 4), ("age", "sex")),
        ]
        assert np.array_equal(halves[0][0] + halves[1][0], pos)
        assert np.array_equal(halves[0][1] + halves[1][1], neg)
        assert halves[0][2] == shape
        with pytest.raises(StoreError, match="shard index"):
            sharded.shard_region_counts([9], ("age", "sex"))

    def test_copy_on_write_take_reuses_disk_shards(self, tmp_path):
        sharded = ShardedDataset.open(
            store_of(tmp_path, small_dataset(n_rows=30), shard_rows=10)
        )
        assert all(isinstance(s, DiskShard) for s in sharded._chunks)
        mask = np.ones(30, dtype=bool)
        mask[25:] = False  # drop rows only from the last shard
        out = sharded.take(mask)
        # untouched whole shards are the *same objects* — no bytes copied
        assert out._chunks[0] is sharded._chunks[0]
        assert out._chunks[1] is sharded._chunks[1]
        assert isinstance(out._chunks[2], MemoryChunk)
        assert isinstance(out, ShardedDataset) and out.path is None
        assert len(out) == 25

    def test_int_take_preserves_order_and_duplicates(self, tmp_path):
        ds = small_dataset(n_rows=30)
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
        idx = np.array([29, 0, 7, 7, -1, 15])
        a, b = ds.take(idx), sharded.take(idx)
        for name in ds.schema.names:
            assert np.array_equal(a.column(name), b.column(name))
        assert np.array_equal(a.y, b.y)

    def test_with_labels_overlays_without_copying_columns(self, tmp_path):
        ds = small_dataset()
        path = store_of(tmp_path, ds, shard_rows=10)
        stamps = {p: p.stat().st_mtime_ns for p in path.rglob("*.npy")}
        sharded = ShardedDataset.open(path)
        flipped = sharded.with_labels(1 - ds.y)
        assert np.array_equal(flipped.y, 1 - ds.y)
        # each shard keeps its own column files and only swaps labels
        for old, new in zip(sharded._chunks, flipped._chunks):
            assert isinstance(new, DiskShard) and new.directory == old.directory
        # a double relabel replaces the labels instead of nesting
        again = flipped.with_labels(ds.y)
        for old, new in zip(sharded._chunks, again._chunks):
            assert type(new) is DiskShard and new.directory == old.directory
        assert np.array_equal(again.y, ds.y)
        assert {p: p.stat().st_mtime_ns for p in path.rglob("*.npy")} == stamps
        with pytest.raises(DataError, match="labels must be binary 0/1"):
            sharded.with_labels(np.full(len(ds.y), 2))

    def test_append_rows_adopts_shards(self, tmp_path):
        ds = small_dataset(n_rows=20)
        other = small_dataset(n_rows=10, seed=9)
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
        grown = sharded.append_rows(other)
        assert len(grown) == 30
        assert grown.n_shards == 3
        assert np.array_equal(
            grown.column("age"),
            np.concatenate([ds.column("age"), other.column("age")]),
        )
        with pytest.raises(DataError, match="different schema"):
            sharded.append_rows(load_adult(n_rows=6, seed=0))


class TestDeltaRouting:
    """Single-row edits on a store — insert (``append_rows``), delete
    (``drop``), relabel (``with_labels``) — touch only the owning shard."""

    def test_delta_results_match_dataset(self, tmp_path):
        ds = small_dataset(n_rows=30)
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
        flip = ds.y.copy()
        flip[17] = 1 - flip[17]
        row = Dataset(
            ds.schema,
            {"age": [1], "sex": [0], "score": [0.5]},
            np.array([0]),
            ds.protected,
        )
        for edit in (
            lambda d: d.with_labels(flip),
            lambda d: d.drop([4]),
            lambda d: d.append_rows(row),
        ):
            a, b = edit(ds), edit(sharded)
            assert np.array_equal(a.y, b.y)
            for name in ds.schema.names:
                assert np.array_equal(a.column(name), b.column(name))
            for counts_a, counts_b in zip(
                a.region_counts(ds.protected)[:2], b.region_counts(ds.protected)[:2]
            ):
                assert counts_a.tobytes() == counts_b.tobytes()

    def test_delete_touches_only_the_owning_shard(self, tmp_path):
        sharded = ShardedDataset.open(
            store_of(tmp_path, small_dataset(n_rows=30), shard_rows=10)
        )
        out = sharded.drop([15])
        assert out._chunks[0] is sharded._chunks[0]
        assert out._chunks[2] is sharded._chunks[2]
        assert isinstance(out._chunks[1], MemoryChunk)
        assert len(out) == 29

    def test_row_errors_match_dataset_wording(self, tmp_path):
        ds = small_dataset()
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
        with pytest.raises(DataError) as from_sharded:
            sharded.drop([99])
        with pytest.raises(DataError) as from_dataset:
            ds.drop([99])
        assert str(from_sharded.value) == str(from_dataset.value)


class TestRegistry:
    def test_materialize_list_open_verify_prune(self, tmp_path):
        registry = Registry(tmp_path)
        ds = small_dataset(n_rows=40)
        registry.materialize("toy", ds, shard_rows=16)
        assert registry.names() == ["toy"]
        [(name, manifest)] = registry.entries()
        assert name == "toy" and manifest["n_rows"] == 40

        opened = registry.open("toy")
        assert np.array_equal(opened.y, ds.y)
        report = registry.verify("toy")
        assert report["name"] == "toy" and report["n_shards"] == 3
        assert [r["name"] for r in registry.verify_all()] == ["toy"]

        result = registry.prune(["toy"])
        assert result["removed"] == ["toy"]
        assert registry.names() == []

    def test_materialize_needs_exactly_one_source(self, tmp_path):
        registry = Registry(tmp_path)
        with pytest.raises(StoreError, match="exactly one"):
            registry.materialize("x", shard_rows=10)
        with pytest.raises(StoreError, match="exactly one"):
            registry.materialize(
                "x", small_dataset(), chunks=iter([]), shard_rows=10
            )

    def test_materialize_from_chunks(self, tmp_path):
        registry = Registry(tmp_path)
        opened = registry.materialize(
            "synth",
            chunks=synth_chunks(load_adult, 30, 10, seed=1),
            shard_rows=10,
        )
        assert len(opened) == 30 and opened.n_shards == 3

    def test_names_are_validated(self, tmp_path):
        registry = Registry(tmp_path)
        for bad in ("../escape", ".hidden", "", "a/b"):
            with pytest.raises(StoreError, match="invalid dataset name"):
                registry.path_of(bad)

    def test_prune_unknown_name_is_loud(self, tmp_path):
        with pytest.raises(StoreError, match="no dataset named 'ghost'"):
            Registry(tmp_path).prune(["ghost"])

    def test_live_lease_pins_until_close(self, tmp_path):
        registry = Registry(tmp_path)
        registry.materialize("pinned", small_dataset(), shard_rows=10)
        handle = registry.open("pinned", lease=True)
        assert (registry.path_of("pinned") / LEASE_DIR).is_dir()
        assert registry.live_leases("pinned")
        report = registry.prune(["pinned"])
        assert report["removed"] == [] and "pinned" in report["kept"]
        handle.close()
        assert registry.live_leases("pinned") == []
        assert registry.prune(["pinned"])["removed"] == ["pinned"]

    def test_force_prune_ignores_leases(self, tmp_path):
        registry = Registry(tmp_path)
        registry.materialize("doomed", small_dataset(), shard_rows=10)
        with registry.open("doomed", lease=True):
            report = registry.prune(["doomed"], force=True)
        assert report["removed"] == ["doomed"]

    def test_dead_pid_lease_does_not_pin(self, tmp_path):
        registry = Registry(tmp_path)
        registry.materialize("stale", small_dataset(), shard_rows=10)
        lease_dir = registry.path_of("stale") / LEASE_DIR
        lease_dir.mkdir(exist_ok=True)
        # pid 2**22+5 is far past any live pid on the test box
        (lease_dir / "4194309-1.lease").write_text("4194309")
        assert registry.leases("stale") == [(4194309, False)]
        assert registry.prune(["stale"])["removed"] == ["stale"]

    def test_dry_run_prune_touches_nothing(self, tmp_path):
        registry = Registry(tmp_path)
        registry.materialize("kept", small_dataset(), shard_rows=10)
        (tmp_path / f"{TMP_PREFIX}orphan").mkdir()
        report = registry.prune(dry_run=True)
        assert report["removed"] == ["kept"]
        assert report["swept"] == [f"{TMP_PREFIX}orphan"]
        assert registry.names() == ["kept"]
        assert registry.tmp_dirs() != []

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_ROOT", str(tmp_path / "cache"))
        assert default_root() == tmp_path / "cache"
        assert Registry().root == tmp_path / "cache"
        monkeypatch.delenv("REPRO_DATA_ROOT")
        assert default_root().name == "datasets"


class TestStoreRef:
    def test_pickle_round_trip_resolves_to_same_bytes(self, tmp_path):
        ds = small_dataset()
        path = store_of(tmp_path, ds, shard_rows=10)
        clear_ref_cache()
        ref = ShardedDataset.open(path).store_ref()
        thawed = pickle.loads(pickle.dumps(ref))
        assert thawed == ref and hash(thawed) == hash(ref)
        opened = open_store_ref(thawed)
        assert np.array_equal(opened.y, ds.y)
        # per-process cache: the same ref resolves to the same object
        assert open_store_ref(ref) is opened
        clear_ref_cache()
        assert open_store_ref(ref) is not opened

    def test_rewritten_store_is_detected(self, tmp_path):
        ds = small_dataset()
        path = store_of(tmp_path, ds, shard_rows=10)
        ref = ShardedDataset.open(path).store_ref()
        write_store(path, iter_chunks(ds, 5), 5, overwrite=True)
        clear_ref_cache()
        with pytest.raises(StoreError, match="digest"):
            open_store_ref(ref)

    def test_memory_only_dataset_has_no_ref(self):
        sharded = ShardedDataset.from_dataset(small_dataset(), shard_rows=10)
        with pytest.raises(StoreError, match="opened from a store"):
            sharded.store_ref()

    def test_ref_repr_is_compact(self, tmp_path):
        path = store_of(tmp_path, small_dataset(), shard_rows=10)
        ref = ShardedDataset.open(path).store_ref()
        assert isinstance(ref, StoreRef)
        assert "StoreRef" in repr(ref) and ref.digest[:8] in repr(ref)


def shipped_kinds(tmp_path):
    ds = small_dataset()
    opened = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
    return {
        "in-memory": ds,
        "opened": opened,
        "edited": opened.drop([0]),
        "from_dataset": ShardedDataset.from_dataset(ds, shard_rows=10),
    }


class TestPoolShipping:
    """``WorkerPool`` swaps dataset params for handles before shipping;
    a ``ShardedDataset`` is a ``Dataset``, so it must be tested first."""

    @pytest.mark.parametrize(
        "kind", ["in-memory", "opened", "edited", "from_dataset"]
    )
    def test_each_dataset_kind_ships_by_its_handle(self, tmp_path, kind):
        table = shipped_kinds(tmp_path)[kind]
        before = dict(published_segments())
        pool = WorkerPool(max_workers=1)
        try:
            if kind in ("edited", "from_dataset"):
                # detached from the stored bytes: refused, never copied
                # into shared memory
                with pytest.raises(StoreError, match="opened from a store"):
                    pool._swap_datasets({"data": table})
                assert published_segments() == before
                return
            swapped = pool._swap_datasets({"data": table, "n": 3})
            assert swapped["n"] == 3
            if kind == "opened":
                assert swapped["data"] == table.store_ref()
                assert published_segments() == before
            else:
                assert isinstance(swapped["data"], DatasetRef)
        finally:
            pool.close()
        assert published_segments() == before


class TestShardFanout:
    def test_sharded_region_counts_matches_direct(self, tmp_path):
        ds = small_dataset(n_rows=60)
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
        pos, neg, shape = sharded.region_counts(("age", "sex"))
        fpos, fneg, fshape = sharded_region_counts(
            sharded, ("age", "sex"), shards_per_cell=2
        )
        assert fshape == shape
        assert np.array_equal(fpos, pos) and np.array_equal(fneg, neg)
        with pytest.raises(ExperimentError, match="shards_per_cell"):
            sharded_region_counts(sharded, ("age",), shards_per_cell=0)

    @pytest.mark.slow
    def test_pool_ships_store_refs_to_workers(self, tmp_path):
        ds = small_dataset(n_rows=60)
        sharded = ShardedDataset.open(store_of(tmp_path, ds, shard_rows=10))
        pos, neg, shape = sharded.region_counts(("age", "sex"))
        executor = CellExecutor(backend=BACKEND_PROCESS, max_workers=2)
        fpos, fneg, fshape = sharded_region_counts(
            sharded, ("age", "sex"), executor=executor, shards_per_cell=3
        )
        assert fshape == shape
        assert np.array_equal(fpos, pos) and np.array_equal(fneg, neg)


class TestDataCli:
    def test_materialize_list_verify_prune(self, tmp_path, capsys):
        root = str(tmp_path / "reg")
        rc = main([
            "data", "materialize", "adult-small", "--root", root,
            "--rows", "50", "--shard-rows", "20", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "materialized adult-small: 50 rows in 3 shard(s)" in out

        lease = Registry(root).acquire_lease("adult-small")
        assert main(["data", "list", "--root", root]) == 0
        out = capsys.readouterr().out
        row = [c.strip() for c in out.splitlines()[2].split("|")]
        assert row[:3] == ["adult-small", "50", "3"] and row[4] == "1"
        lease.unlink()

        assert main(["data", "verify", "adult-small", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

        assert main(["data", "prune", "adult-small", "--root", root]) == 0
        assert Registry(root).names() == []

    def test_list_json_is_byte_stable_registry_payload(
        self, tmp_path, capsysbinary
    ):
        from repro.serve.protocol import canonical_json_bytes, registry_payload

        root = str(tmp_path / "reg")
        assert main([
            "data", "materialize", "adult-small", "--root", root,
            "--rows", "50", "--shard-rows", "20", "--seed", "3",
        ]) == 0
        capsysbinary.readouterr()
        assert main(["data", "list", "--root", root, "--json"]) == 0
        first = capsysbinary.readouterr().out
        assert main(["data", "list", "--root", root, "--json"]) == 0
        assert capsysbinary.readouterr().out == first
        assert first == canonical_json_bytes(registry_payload(Registry(root)))

    def test_verify_failure_is_exit_2_and_names_file(self, tmp_path, capsys):
        root = str(tmp_path / "reg")
        main([
            "data", "materialize", "flip", "--root", root,
            "--rows", "50", "--shard-rows", "20",
        ])
        capsys.readouterr()
        victim = Registry(root).path_of("flip") / "shard-00001" / "c0000.npy"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        rc = main(["data", "verify", "flip", "--root", root])
        assert rc == 2
        err = capsys.readouterr().err
        assert "shard-00001/c0000.npy" in err and "sha256 mismatch" in err

    def test_materialize_from_csv_requires_schema(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        assert main(["generate", "compas", str(csv), "--rows", "60"]) == 0
        capsys.readouterr()
        root = str(tmp_path / "reg")
        rc = main([
            "data", "materialize", "fromcsv", "--root", root,
            "--csv", str(csv), "--shard-rows", "25",
        ])
        assert rc == 2  # no --schema
        rc = main([
            "data", "materialize", "fromcsv", "--root", root,
            "--csv", str(csv), "--schema", str(csv.with_suffix(".schema.json")),
            "--shard-rows", "25",
        ])
        assert rc == 0
        capsys.readouterr()
        assert len(Registry(root).open("fromcsv")) == 60
