"""Tier-1 gate: the repo's own source tree must be clean under its own
static analyzer, modulo the checked-in baseline — every entry of which
must carry a written justification."""

from __future__ import annotations

import importlib.util
import io
import json
from pathlib import Path

from repro.analysis import (
    analyze_paths,
    analyze_project,
    default_rules,
    load_baseline,
    load_baseline_entries,
)
from repro.analysis.runner import EXIT_CLEAN, run
from repro.cli import main as repro_main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
BASELINE = REPO / "analysis-baseline.json"


def test_source_tree_clean_against_baseline():
    findings = analyze_paths([SRC], default_rules())
    baseline = load_baseline(BASELINE)
    new = [f for f in findings if f.fingerprint() not in baseline]
    assert new == [], "new analysis findings:\n" + "\n".join(
        f.format() for f in new
    )


def test_runner_gate_exits_clean():
    out = io.StringIO()
    assert (
        run([str(SRC)], baseline_path=str(BASELINE), stream=out) == EXIT_CLEAN
    ), out.getvalue()


def test_json_report_is_clean_and_well_formed():
    out = io.StringIO()
    rc = run([str(SRC)], baseline_path=str(BASELINE), output_format="json", stream=out)
    payload = json.loads(out.getvalue())
    assert rc == EXIT_CLEAN
    assert payload["summary"]["new"] == 0
    assert payload["findings"] == []
    assert len(payload["rules"]) == 16
    assert {r["tier"] for r in payload["rules"]} == {"file", "project"}


def test_cli_analyze_subcommand(capsys):
    rc = repro_main(["analyze", str(SRC), "--baseline", str(BASELINE)])
    captured = capsys.readouterr()
    assert rc == 0, captured.out
    assert "0 new findings" in captured.out


def test_every_baseline_entry_is_justified():
    """The ratchet tolerates nothing silently: each grandfathered finding
    must point at a file that still exists and carry a written reason."""
    entries = load_baseline_entries(BASELINE)
    for entry in entries:
        assert entry.reason.strip(), f"baseline entry lacks a reason: {entry}"
        assert (REPO / entry.path).exists(), f"baseline file vanished: {entry.path}"


def _strict_rules() -> str:
    """``STRICT_RULES`` from scripts/ci.py, the strict lint's one rule list."""
    spec = importlib.util.spec_from_file_location("ci", REPO / "scripts" / "ci.py")
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    return ci.STRICT_RULES


def test_strict_subsystem_slice_is_clean():
    """The chaos, data-verify and serve-chaos contract: each slice carries
    zero findings under the strict rule list with no baseline at all
    (inline suppressions only)."""
    rules = default_rules(tuple(_strict_rules().split(",")))
    for slice_ in (
        [SRC / "resilience", SRC / "obs"], [SRC / "data" / "store"], [SRC / "serve"]
    ):
        outcome = analyze_project(slice_, rules)
        assert outcome.findings == (), "\n".join(
            f.format() for f in outcome.findings
        )


def test_makefile_lints_with_the_same_strict_rules():
    makefile = (REPO / "Makefile").read_text()
    assert f"STRICT_RULES := {_strict_rules()}\n" in makefile


def test_warm_cache_is_fast_and_byte_identical(tmp_path):
    """Acceptance: warm-cache whole-program run under 2 seconds with
    output byte-identical to the cold run."""
    cache = tmp_path / "cache.json"
    cold = io.StringIO()
    rc_cold = run(
        [str(SRC)], baseline_path=str(BASELINE), cache_path=str(cache),
        show_stats=False, stream=cold,
    )
    warm = io.StringIO()
    rc_warm = run(
        [str(SRC)], baseline_path=str(BASELINE), cache_path=str(cache),
        show_stats=False, stream=warm,
    )
    assert (rc_cold, rc_warm) == (EXIT_CLEAN, EXIT_CLEAN)
    assert warm.getvalue() == cold.getvalue()
    outcome = analyze_project([SRC], default_rules(), cache_path=cache)
    assert outcome.stats.cache_misses == 0
    assert outcome.stats.wall_seconds < 2.0
