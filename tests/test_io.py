"""Unit tests for repro.data.io CSV round-trip and atomic writes."""

import json

import numpy as np
import pytest

from repro.data import atomic_write_json, atomic_write_text, read_csv, write_csv
from repro.data.schema import schema_from_domains
from repro.errors import DataError


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, toy_dataset, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(toy_dataset, path)
        back = read_csv(path, toy_dataset.schema, protected=toy_dataset.protected)
        assert back.n_rows == toy_dataset.n_rows
        assert np.array_equal(back.y, toy_dataset.y)
        assert np.array_equal(back.column("age"), toy_dataset.column("age"))
        assert np.allclose(back.column("score"), toy_dataset.column("score"))
        assert back.protected == toy_dataset.protected

    def test_header_written(self, toy_dataset, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(toy_dataset, path)
        header = path.read_text().splitlines()[0]
        assert header == "age,sex,score,label"

    def test_categorical_cells_are_labels(self, toy_dataset, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(toy_dataset, path)
        body = path.read_text()
        assert "young" in body and "m" in body


class TestReadErrors:
    def test_empty_file(self, toy_dataset, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_csv(path, toy_dataset.schema)

    def test_header_mismatch(self, toy_dataset, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header,here,label\n")
        with pytest.raises(DataError):
            read_csv(path, toy_dataset.schema)

    def test_field_count_mismatch(self, toy_dataset, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("age,sex,score,label\nyoung,m\n")
        with pytest.raises(DataError):
            read_csv(path, toy_dataset.schema)

    def test_unknown_label_value(self, toy_dataset, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("age,sex,score,label\nancient,m,0.5,1\n")
        with pytest.raises(Exception):
            read_csv(path, toy_dataset.schema)

    def test_read_only_schema_columns(self, tmp_path):
        schema = schema_from_domains({"g": ("x", "y")})
        path = tmp_path / "g.csv"
        path.write_text("g,label\nx,1\ny,0\n")
        ds = read_csv(path, schema)
        assert ds.n_rows == 2
        assert ds.column("g").tolist() == [0, 1]


class TestBadValuePolicy:
    def test_drop_skips_missing_rows(self, toy_dataset, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text(
            "age,sex,score,label\n"
            "young,m,0.5,1\n"
            "?,f,0.5,0\n"          # missing categorical
            "old,f,,1\n"           # missing numeric
            "mid,m,abc,0\n"        # unparseable numeric
            "ancient,m,0.1,1\n"    # out-of-domain categorical
            "old,f,0.9,NA\n"       # missing label
            "mid,f,1.5,0\n"
        )
        ds = read_csv(path, toy_dataset.schema, on_bad_value="drop")
        assert ds.n_rows == 2
        assert ds.y.tolist() == [1, 0]

    def test_error_mode_reports_line(self, toy_dataset, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text("age,sex,score,label\nyoung,m,0.5,1\n?,f,0.5,0\n")
        with pytest.raises(DataError, match=":3"):
            read_csv(path, toy_dataset.schema)

    def test_invalid_policy(self, toy_dataset, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("age,sex,score,label\n")
        with pytest.raises(DataError):
            read_csv(path, toy_dataset.schema, on_bad_value="ignore")

    def test_custom_missing_tokens(self, toy_dataset, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text("age,sex,score,label\nyoung,m,0.5,1\nmid,f,-999,0\n")
        ds = read_csv(
            path,
            toy_dataset.schema,
            on_bad_value="drop",
            missing_tokens=("-999",),
        )
        assert ds.n_rows == 1


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x" * 10_000)
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("precious")

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr("os.fsync", explode)
        with pytest.raises(OSError):
            atomic_write_text(path, "replacement")
        monkeypatch.undo()
        assert path.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_directory_is_fsynced_after_the_replace(self, tmp_path, dir_fsynced):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert dir_fsynced(path)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"b": [1, 2], "a": {"nested": True}}
        atomic_write_json(path, payload)
        assert json.loads(path.read_text()) == payload
        assert path.read_text().endswith("\n")
