"""The one chaos seam and the one drill table.

:func:`repro.data.io.chaos_point` is where a ``REPRO_CHAOS`` plan stops the
program.  The drill stages arm it in subprocesses; these tests arm it
in-process at each of its three sites, with ``execute_chaos_action``
replaced by a sentinel raise, and pin what is on disk (or on the wire) at
the instant a real crash would land.  The last tests pin the drill table
to the CI stages and Makefile targets that run it.
"""

from __future__ import annotations

import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data import Column, Schema
from repro.data.io import CHAOS_ENV, chaos_point
from repro.data.store.format import (
    LABELS_FILE,
    MANIFEST_NAME,
    column_file_name,
    shard_dir_name,
)
from repro.data.store.registry import TMP_PREFIX, Registry, iter_chunks, write_store
from repro.errors import InternalError
from repro.resilience import faults
from repro.resilience.chaos import STAGES
from repro.serve.gateway import AuditGateway
from repro.stream.deltas import InsertDelta
from repro.stream.journal import StreamConfig
from repro.stream.service import StreamService

REPO = Path(__file__).resolve().parent.parent


class Fired(Exception):
    """Stands in for the crash: the armed action raises this instead."""


@pytest.fixture
def arm(monkeypatch):
    """``arm(site, key)`` sets ``REPRO_CHAOS``; the action raises Fired."""

    def fire(action):
        raise Fired(action)

    monkeypatch.setattr(faults, "execute_chaos_action", fire)

    def arm_(site: str, key: str) -> None:
        plan = {"site": site, "key": key, "action": {"kind": "crash", "mode": "exit"}}
        monkeypatch.setenv(CHAOS_ENV, json.dumps(plan))

    return arm_


def make_service(directory) -> StreamService:
    schema = Schema(
        [
            Column("a", "categorical", ("a0", "a1")),
            Column("b", "categorical", ("b0", "b1")),
        ]
    )
    config = StreamConfig(schema=schema, protected=("a", "b"), tau_c=0.1, k=2)
    return StreamService.create(directory, config)


class TestSites:
    def test_store_stops_after_shard_k_before_the_manifest(
        self, tmp_path, toy_dataset, arm
    ):
        arm("store.shard", "1")
        with pytest.raises(Fired):
            write_store(tmp_path / "s", iter_chunks(toy_dataset, 4), 4)
        (torso,) = [p for p in tmp_path.iterdir() if p.name.startswith(TMP_PREFIX)]
        assert sorted(p.name for p in torso.iterdir()) == [
            shard_dir_name(0), shard_dir_name(1),
        ]
        n_columns = len(toy_dataset.schema.names)
        assert sorted(p.name for p in (torso / shard_dir_name(1)).iterdir()) == sorted(
            [column_file_name(i) for i in range(n_columns)] + [LABELS_FILE]
        )
        assert not (torso / MANIFEST_NAME).exists()
        assert not (tmp_path / "s").exists()

    def test_stream_stops_after_the_append_before_the_watermark(self, tmp_path, arm):
        service = make_service(tmp_path / "s")
        arm("stream.append", "b1")
        batches = [
            (bid, [InsertDelta(values=(0, 1), label=1)]) for bid in ("b0", "b1", "b2")
        ]
        try:
            with pytest.raises(Fired):
                service.ingest(batches)
            assert service.log.has_batch("b1")
            assert not service.log.has_batch("b2")
            assert service.auditor.watermark == 1
            assert "b1" not in service.auditor.applied_ids
        finally:
            service.close()

    def test_fetch_stops_after_half_the_file(self, tmp_path, toy_dataset, arm):
        registry = Registry(tmp_path / "registry")
        registry.materialize("toy", toy_dataset, shard_rows=4).close()
        gateway = AuditGateway(make_service(tmp_path / "s"), registry=registry)
        armed = f"{shard_dir_name(1)}/{LABELS_FILE}"
        arm("serve.fetch", armed)
        try:
            for name in (f"{shard_dir_name(0)}/{LABELS_FILE}", armed):
                handler = _FetchHandler()
                data = (registry.path_of("toy") / name).read_bytes()
                if name != armed:
                    assert gateway._shard_file_get(handler, f"/datasets/toy/files/{name}")
                    assert handler.wfile.getvalue() == data
                    continue
                with pytest.raises(Fired):
                    gateway._shard_file_get(handler, f"/datasets/toy/files/{name}")
                assert handler.headers["Content-Length"] == str(len(data))
                assert handler.wfile.getvalue() == data[: len(data) // 2]
        finally:
            gateway.server.server_close()
            gateway.service.close()


class _FetchHandler:
    """The slice of ``BaseHTTPRequestHandler`` the fetch tier writes to."""

    def __init__(self) -> None:
        self.wfile = io.BytesIO()
        self.headers: dict[str, str] = {}

    def send_response(self, status: int) -> None:
        self.status = status

    def send_header(self, name: str, value: str) -> None:
        self.headers[name] = value

    def end_headers(self) -> None:
        pass


class TestPlan:
    @pytest.mark.parametrize(
        "site,key", [("stream.append", "b2"), ("store.shard", "b1")]
    )
    def test_a_plan_for_another_site_or_key_does_nothing(self, arm, site, key):
        arm(site, key)
        chaos_point("stream.append", "b1")

    def test_unarmed_is_inert(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        monkeypatch.setattr(faults, "execute_chaos_action", _never)
        chaos_point("stream.append", "b1")

    @pytest.mark.parametrize(
        "spec",
        ["not json", "null", "[1, 2]", '"plan"', "{}",
         '{"site": "stream.append", "key": "b1"}'],
    )
    def test_a_malformed_plan_is_an_internal_error(self, monkeypatch, spec):
        monkeypatch.setenv(CHAOS_ENV, spec)
        with pytest.raises(InternalError, match=f"malformed {CHAOS_ENV} plan"):
            chaos_point("stream.append", "b1")

    def test_a_matching_plan_runs_the_real_action(self, monkeypatch):
        plan = {"site": "s", "key": "k", "action": {"kind": "hang", "seconds": 0.01}}
        monkeypatch.setenv(CHAOS_ENV, json.dumps(plan))
        chaos_point("s", "k")  # sleeps and returns: hangs are killed from outside
        plan["action"] = {"kind": "bogus"}
        monkeypatch.setenv(CHAOS_ENV, json.dumps(plan))
        with pytest.raises(InternalError, match="unknown chaos descriptor"):
            chaos_point("s", "k")


def _never(action):
    raise AssertionError(f"unarmed chaos_point ran {action!r}")


def test_stream_and_store_paths_do_not_load_resilience(tmp_path):
    """The seam imports ``repro.resilience`` only when a plan fires, so the
    stream and store bench children keep the package out of memory."""
    script = f"""
import sys
from repro.data import Column, Schema
from repro.data.store.registry import iter_chunks, write_store
from repro.data.synth import load_compas
from repro.stream.deltas import InsertDelta
from repro.stream.journal import StreamConfig
from repro.stream.service import StreamService
schema = Schema([Column("a", "categorical", ("a0", "a1"))])
config = StreamConfig(schema=schema, protected=("a",), tau_c=0.1, k=2)
service = StreamService.create({str(tmp_path / "s")!r}, config)
service.ingest([("b0", [InsertDelta(values=(0,), label=1)])])
service.close()
write_store({str(tmp_path / "store")!r}, iter_chunks(load_compas(40, seed=1), 20), 20)
print(sorted(m for m in sys.modules if m.startswith("repro.resilience")))
"""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop(CHAOS_ENV, None)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == b"[]", out.stderr


def _ci_stage_commands() -> list[tuple[str, list[list[str]]]]:
    spec = importlib.util.spec_from_file_location("ci", REPO / "scripts" / "ci.py")
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    n_params = len(inspect.signature(ci.stage_commands).parameters)
    return ci.stage_commands(*["unused"] * n_params)


def test_each_drill_stage_runs_in_exactly_one_ci_stage_of_its_name():
    runs: dict[str, list[str]] = {}
    for name, commands in _ci_stage_commands():
        for argv in commands:
            if "repro.resilience.chaos" in argv:
                runs.setdefault(argv[argv.index("--stage") + 1], []).append(name)
    assert runs == {stage: [stage] for stage in STAGES}


def test_makefile_runs_every_drill_stage():
    makefile = (REPO / "Makefile").read_text()
    stages = re.findall(r"-m repro\.resilience\.chaos --stage (\S+)", makefile)
    assert sorted(stages) == sorted(STAGES)
