"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import read_csv, read_schema


@pytest.fixture
def generated(tmp_path):
    """A small generated COMPAS CSV + schema, shared per test."""
    csv = tmp_path / "compas.csv"
    rc = main(["generate", "compas", str(csv), "--rows", "1200", "--seed", "3"])
    assert rc == 0
    return csv, csv.with_suffix(".schema.json")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "mnist", "out.csv"])

    def test_remedy_technique_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["remedy", "a.csv", "b.csv", "--schema", "s.json", "--technique", "x"]
            )


class TestGenerate:
    def test_writes_csv_and_schema(self, generated):
        csv, schema_path = generated
        assert csv.exists() and schema_path.exists()
        schema, protected = read_schema(schema_path)
        ds = read_csv(csv, schema, protected=protected)
        assert ds.n_rows == 1200
        assert ds.protected == ("age", "race", "sex")

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "compas", str(a), "--rows", "300", "--seed", "9"])
        main(["generate", "compas", str(b), "--rows", "300", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestIdentify:
    def test_prints_regions(self, generated, capsys):
        csv, schema = generated
        rc = main(
            ["identify", str(csv), "--schema", str(schema), "--tau-c", "0.3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Implicit Biased Set" in out
        assert "biased regions" in out

    def test_naive_method_flag(self, generated, capsys):
        csv, schema = generated
        rc = main(
            [
                "identify", str(csv), "--schema", str(schema),
                "--tau-c", "0.3", "--method", "naive",
            ]
        )
        assert rc == 0


class TestRemedy:
    def test_writes_remedied_csv(self, generated, tmp_path, capsys):
        csv, schema = generated
        out = tmp_path / "fixed.csv"
        rc = main(
            [
                "remedy", str(csv), str(out), "--schema", str(schema),
                "--technique", "massaging", "--tau-c", "0.2",
            ]
        )
        assert rc == 0
        assert out.exists()
        sch, protected = read_schema(schema)
        fixed = read_csv(out, sch, protected=protected)
        original = read_csv(csv, sch, protected=protected)
        assert fixed.n_rows == original.n_rows  # massaging keeps size
        assert not np.array_equal(fixed.y, original.y)  # labels flipped


class TestAudit:
    def test_reports_fairness(self, generated, capsys):
        csv, schema = generated
        rc = main(
            ["audit", str(csv), "--schema", str(schema), "--model", "dt"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out
        assert "fairness index (FPR)" in out
        assert "Unfair subgroups" in out


class TestExperiment:
    def test_fig8_runs(self, capsys):
        rc = main(["experiment", "fig8", "--rows", "1500", "--models", "dt"])
        assert rc == 0
        assert "T = 1 vs T = |X|" in capsys.readouterr().out

    def test_fig9_runs(self, capsys):
        rc = main(["experiment", "fig9", "--rows", "2000"])
        assert rc == 0
        assert "speedups" in capsys.readouterr().out

    def test_robustness_runs(self, capsys):
        rc = main(["experiment", "robustness", "--rows", "600"])
        assert rc == 0
        assert "Robustness" in capsys.readouterr().out

    def test_process_backend_matches_inproc_output(self, capsys):
        args = ["experiment", "robustness", "--rows", "600", "--models", "dt"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--backend", "process", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "Robustness" in parallel

    def test_fig8_process_backend_matches_inproc_output(self, capsys):
        args = ["experiment", "fig8", "--rows", "600", "--models", "dt"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--backend", "process", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "T = 1 vs T = |X|" in parallel

    def test_fig7_checkpoint_then_resume_reprints_the_table(self, tmp_path, capsys):
        ck = tmp_path / "c7.json"
        args = ["experiment", "fig7", "--rows", "600", "--models", "dt",
                "--checkpoint", str(ck)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert ck.exists()
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        assert "varying tau_c" in first
        assert "failed points" not in first

    def test_fig3_process_backend_matches_inproc_output(self, capsys):
        """Subgroup patterns cross the process boundary as dict keys."""
        args = ["experiment", "fig3", "--rows", "800", "--models", "dt"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--backend", "process", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "| yes" in parallel


ROBUSTNESS_ARGS = ["experiment", "robustness", "--rows", "600"]


class TestExitCodes:
    """The CLI exit-code contract (docs/resilience.md): 0 / 2 / 3 / 130."""

    def test_repro_error_exits_2(self, capsys):
        rc = main(["experiment", "robustness", "--resume"])
        assert rc == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_existing_checkpoint_without_resume_exits_2(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        ck.write_text("{}")
        rc = main(ROBUSTNESS_ARGS + ["--checkpoint", str(ck)])
        assert rc == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_negative_max_retries_exits_2(self, capsys):
        rc = main(ROBUSTNESS_ARGS + ["--max-retries", "-1"])
        assert rc == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_fig7_timed_out_cells_exit_3(self, capsys):
        rc = main(["experiment", "fig7", "--rows", "600", "--models", "dt",
                   "--cell-timeout", "0.0001", "--max-retries", "0"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "cell(s) failed" in captured.err
        # Each failed point is listed under the table with its status.
        listed = captured.out.split("failed points:\n", 1)[1].splitlines()
        assert listed == [
            f"  {value}: TIMEOUT"
            for value in ("original", "0.1000", "0.3000", "0.5000", "0.7000", "0.9000")
        ]

    def test_zero_workers_exits_2(self, capsys):
        rc = main(ROBUSTNESS_ARGS + ["--workers", "0"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        schema = tmp_path / "bad.schema.json"
        main(["generate", "compas", str(tmp_path / "ok.csv"), "--rows", "100"])
        schema_src = tmp_path / "ok.schema.json"
        schema.write_text(schema_src.read_text())
        csv.write_text("not,a,valid,header\n1,2,3,4\n")
        rc = main(["identify", str(csv), "--schema", str(schema)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_partial_failure_exits_3(self, monkeypatch, capsys):
        from repro.errors import DataError
        import repro.experiments.robustness as robustness_mod

        def broken_pipeline(self, train):
            raise DataError("injected harness failure")

        monkeypatch.setattr(
            robustness_mod.RemedyPipeline, "transform", broken_pipeline
        )
        rc = main(ROBUSTNESS_ARGS + ["--max-retries", "0"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "FAILED(DataError)" in captured.out
        assert "cell(s) failed" in captured.err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.experiments.robustness as robustness_mod

        def interrupted(self, train):
            raise KeyboardInterrupt

        monkeypatch.setattr(robustness_mod.RemedyPipeline, "transform", interrupted)
        rc = main(ROBUSTNESS_ARGS)
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err

    def test_interrupt_flushes_checkpoint_then_resume_matches(
        self, monkeypatch, tmp_path, capsys
    ):
        """Crash mid-sweep; completed cells are durable; resume is identical."""
        ck = tmp_path / "ck.json"
        args = ROBUSTNESS_ARGS + ["--checkpoint", str(ck)]

        baseline_rc = main(ROBUSTNESS_ARGS)
        assert baseline_rc == 0
        baseline_out = capsys.readouterr().out

        import repro.experiments.robustness as robustness_mod

        original = robustness_mod.RemedyPipeline.transform
        calls = {"n": 0}

        def crash_on_third(self, train):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return original(self, train)

        monkeypatch.setattr(robustness_mod.RemedyPipeline, "transform", crash_on_third)
        rc = main(args)
        assert rc == 130
        capsys.readouterr()
        assert ck.exists()  # the first two cells were flushed before the crash

        monkeypatch.undo()
        rc = main(args + ["--resume"])
        assert rc == 0
        assert capsys.readouterr().out == baseline_out

    def test_checkpoint_from_other_config_exits_2(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        assert main(ROBUSTNESS_ARGS + ["--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        rc = main(
            ["experiment", "robustness", "--rows", "700",
             "--checkpoint", str(ck), "--resume"]
        )
        assert rc == 2
        assert "different configuration" in capsys.readouterr().err


class TestCheckpointCommand:
    def test_inspect_summarizes_sweep_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        rc = main(ROBUSTNESS_ARGS + ["--models", "dt", "--checkpoint", str(ck)])
        assert rc == 0
        capsys.readouterr()

        assert main(["checkpoint", "inspect", str(ck)]) == 0
        out = capsys.readouterr().out
        assert f"checkpoint: {ck}" in out
        assert "run id:" in out
        assert "0 failed" in out
        assert "age:" in out

    def test_inspect_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["checkpoint", "inspect", str(tmp_path / "none.json")])
        assert rc == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_prune_keeps_newest(self, tmp_path, capsys):
        import os

        from repro.resilience import Checkpoint

        old, new = tmp_path / "old.json", tmp_path / "new.json"
        Checkpoint(old, "r1").record(("a",), {"value": 1})
        Checkpoint(new, "r2").record(("a",), {"value": 2})
        os.utime(old, (1000.0, 1000.0))

        rc = main(["checkpoint", "prune", str(tmp_path), "--keep-latest", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"deleted {old}" in out
        assert "pruned 1 checkpoint(s)" in out
        assert new.exists() and not old.exists()


class TestReport:
    def test_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main(
            [
                "report", str(out),
                "--adult-rows", "2000",
                "--compas-rows", "1200",
                "--lawschool-rows", "1000",
                "--models", "dt",
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "Table III" in text and "Fig. 3" in text


class TestAuditLog:
    def test_remedy_writes_audit_trail(self, generated, tmp_path):
        import json

        csv, schema = generated
        out = tmp_path / "fixed.csv"
        log = tmp_path / "trail.json"
        rc = main(
            [
                "remedy", str(csv), str(out), "--schema", str(schema),
                "--technique", "undersampling", "--tau-c", "0.2",
                "--audit-log", str(log),
            ]
        )
        assert rc == 0
        payload = json.loads(log.read_text())
        assert payload["updates"]
        assert payload["rows_touched"] > 0


class TestDescribe:
    def test_describe_prints_profile(self, generated, capsys):
        csv, schema = generated
        rc = main(["describe", str(csv), "--schema", str(schema), "--regions", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "columns" in out
        assert "largest leaf regions" in out
        assert "protected groups" in out


class TestExplainAndPlan:
    def test_explain_subgroup(self, generated, capsys):
        csv, schema = generated
        rc = main(
            [
                "explain", str(csv), "--schema", str(schema),
                "--subgroup", "race=Afr-Am,sex=Male", "--tau-c", "0.3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "subgroup (race=Afr-Am, sex=Male)" in out
        assert "imbalance score" in out

    def test_explain_bad_spec(self, generated):
        csv, schema = generated
        with pytest.raises(SystemExit):
            main(
                [
                    "explain", str(csv), "--schema", str(schema),
                    "--subgroup", "race-Afr-Am",
                ]
            )

    def test_plan_prints_grid(self, generated, capsys):
        csv, schema = generated
        rc = main(
            [
                "plan", str(csv), "--schema", str(schema),
                "--tau-grid", "0.2", "0.6",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Remedy plans" in out
        assert "0.2" in out and "0.6" in out


class TestTrace:
    def test_identify_writes_trace_and_manifest(self, generated, tmp_path):
        import json

        csv, schema = generated
        trace_path = tmp_path / "run.jsonl"
        rc = main(
            [
                "identify", str(csv), "--schema", str(schema),
                "--tau-c", "0.3", "--trace", str(trace_path),
            ]
        )
        assert rc == 0
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert any(
            r["type"] == "span" and r["name"] == "identify_ibs" for r in lines
        )
        assert lines[-1]["type"] == "manifest"
        sidecar = json.loads(
            trace_path.with_name("run.jsonl.manifest.json").read_text()
        )
        assert sidecar["command"] == "identify"
        assert sidecar["config_hash"] == lines[-1]["config_hash"]

    def test_trace_summarize_renders_span_tree(self, generated, tmp_path, capsys):
        csv, schema = generated
        trace_path = tmp_path / "run.jsonl"
        assert main(
            [
                "identify", str(csv), "--schema", str(schema),
                "--tau-c", "0.3", "--trace", str(trace_path),
            ]
        ) == 0
        capsys.readouterr()

        rc = main(["trace", "summarize", str(trace_path), "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "identify_ibs" in out
        assert "ibs.level" in out
        assert "metric totals" in out
        assert "manifest: command=identify" in out

    def test_summarize_missing_file_is_typed_error(self, tmp_path, capsys):
        rc = main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_experiment_checkpoint_gets_manifest_sidecar(self, tmp_path):
        import json

        ckpt = tmp_path / "fig3.ckpt.json"
        rc = main(
            [
                "experiment", "fig3", "--rows", "800", "--models", "dt",
                "--checkpoint", str(ckpt),
            ]
        )
        assert rc == 0
        sidecar = json.loads(
            ckpt.with_name("fig3.ckpt.json.manifest.json").read_text()
        )
        assert sidecar["command"] == "experiment:fig3"
        assert sidecar["seed"] == 0
        assert sidecar["metrics"].get("cells.checkpoint_flushes", 0) > 0
