"""Engine-level tests: findings, suppressions, baselines, the runner CLI,
and a hypothesis test that the engine never crashes on valid Python."""

from __future__ import annotations

import io
import json
import keyword
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Analyzer,
    FileContext,
    Finding,
    PARSE_ERROR_ID,
    ProjectContext,
    RULE_CLASSES,
    RULE_IDS,
    default_rules,
    diff_against_baseline,
    load_baseline,
    module_all,
    write_baseline,
)
from repro.analysis.runner import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main, run
from repro.errors import AnalysisError

import ast


def analyze(src, path="mod.py", project=None):
    return Analyzer(default_rules(), project=project).analyze_source(src, path=path)


class TestFinding:
    def test_format_is_compiler_style(self):
        f = Finding("a/b.py", 3, 7, "R001", "error", "bad import")
        assert f.format() == "a/b.py:3:7: R001 error: bad import"

    def test_fingerprint_ignores_location(self):
        f1 = Finding("a.py", 3, 7, "R001", "error", "msg")
        f2 = Finding("a.py", 99, 1, "R001", "error", "msg")
        assert f1.fingerprint() == f2.fingerprint()

    def test_to_dict_round_trips_fields(self):
        f = Finding("a.py", 1, 2, "R002", "warning", "m")
        assert f.to_dict() == {
            "path": "a.py",
            "line": 1,
            "column": 2,
            "rule": "R002",
            "severity": "warning",
            "message": "m",
        }

    def test_findings_sort_like_compiler_output(self):
        early = Finding("a.py", 1, 1, "R004", "error", "x")
        late = Finding("a.py", 9, 1, "R001", "error", "x")
        other = Finding("b.py", 1, 1, "R001", "error", "x")
        assert sorted([other, late, early]) == [early, late, other]


class TestEngine:
    def test_syntax_error_becomes_e000(self):
        findings = analyze("def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule_id == PARSE_ERROR_ID
        assert "does not parse" in findings[0].message

    def test_no_rules_is_an_error(self):
        with pytest.raises(AnalysisError):
            Analyzer([])

    def test_duplicate_rule_ids_rejected(self):
        rules = default_rules(("R001",)) + default_rules(("R001",))
        with pytest.raises(AnalysisError):
            Analyzer(rules)

    def test_unknown_rule_filter_rejected(self):
        with pytest.raises(AnalysisError):
            default_rules(("R999",))

    def test_clean_source_has_no_findings(self):
        assert analyze("import numpy as np\n\nx = np.zeros(3)\n") == []

    def test_module_all_literal_extraction(self):
        tree = ast.parse("__all__ = ['a', 'b']\n")
        assert module_all(tree) == ["a", "b"]
        assert module_all(ast.parse("x = 1\n")) is None
        assert module_all(ast.parse("__all__ = [n for n in ()]\n")) is None


class TestResolve:
    def resolve_all(self, src):
        tree = ast.parse(src)
        ctx = FileContext("mod.py", tree, src)
        uses = [n for n in ast.walk(tree) if isinstance(n, ast.Expr)]
        return [ctx.resolve(n.value) for n in uses]

    def test_every_import_form_binds_an_absolute_name(self):
        src = (
            "import numpy as np\n"
            "import os.path\n"
            "from multiprocessing import shared_memory as sm\n"
            "from . import sibling\n"
            "np.lib.format.open_memmap\n"
            "os.path.join\n"
            "sm.SharedMemory\n"
            "sibling.f\n"
            "local.attr\n"
        )
        assert self.resolve_all(src) == [
            "numpy.lib.format.open_memmap",
            "os.path.join",
            "multiprocessing.shared_memory.SharedMemory",
            None,  # relative imports are not resolved
            None,
        ]

    def test_import_order_does_not_matter(self):
        src = "def f():\n    return 0\nload\nfrom numpy import load\n"
        assert self.resolve_all(src) == ["numpy.load"]

    def test_first_binding_of_a_name_wins(self):
        src = "import random\nfrom numpy import random\nrandom.rand\n"
        assert self.resolve_all(src) == ["numpy.random.rand"]


class TestSuppression:
    def test_targeted_suppression(self):
        src = "def f(x):\n    assert x  # repro: ignore[R004]\n"
        assert analyze(src) == []

    def test_blanket_suppression(self):
        src = "import pandas  # repro: ignore\n"
        assert analyze(src) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = "def f(x):\n    assert x  # repro: ignore[R001]\n"
        assert [f.rule_id for f in analyze(src)] == ["R004"]

    def test_suppression_is_line_scoped(self):
        src = "# repro: ignore[R004]\ndef f(x):\n    assert x\n"
        assert [f.rule_id for f in analyze(src)] == ["R004"]

    def test_comment_on_closing_line_covers_the_whole_statement(self):
        # The finding anchors at the first physical line of the wrapped
        # call; the ignore sits on its closing paren line.
        src = (
            "import numpy as np\n"
            "x = np.random.rand(\n"
            "    3,\n"
            ")  # repro: ignore[R002]\n"
        )
        assert analyze(src) == []

    def test_multi_line_import_suppressed_from_closing_line(self):
        src = "from pandas import (\n    DataFrame,\n)  # repro: ignore[R001]\n"
        assert analyze(src) == []

    def test_wrong_id_on_closing_line_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(\n"
            "    3,\n"
            ")  # repro: ignore[R001]\n"
        )
        assert [f.rule_id for f in analyze(src)] == ["R002"]

    def test_body_comment_does_not_silence_the_function_header(self):
        # Compound statements share suppressions across their *header*
        # only — an ignore inside the body must not blanket the def.
        src = "def f(x=[]):\n    y = 1  # repro: ignore\n    return x\n"
        assert [f.rule_id for f in analyze(src)] == ["R003"]


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = [
            Finding("a.py", 1, 1, "R001", "error", "bad"),
            Finding("b.py", 2, 2, "R004", "error", "assert"),
        ]
        path = tmp_path / "base.json"
        assert write_baseline(path, findings) == 2
        baseline = load_baseline(path)
        assert {f.fingerprint() for f in findings} == baseline

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == frozenset()

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(AnalysisError):
            load_baseline(bad)
        bad.write_text("not json at all")
        with pytest.raises(AnalysisError):
            load_baseline(bad)

    def test_diff_partitions_and_spots_stale(self):
        known = Finding("a.py", 1, 1, "R001", "error", "known")
        fresh = Finding("a.py", 2, 1, "R004", "error", "fresh")
        gone = Finding("a.py", 3, 1, "R003", "error", "gone")
        baseline = frozenset({known.fingerprint(), gone.fingerprint()})
        diff = diff_against_baseline([known, fresh], baseline)
        assert diff.new == (fresh,)
        assert diff.baselined == (known,)
        assert diff.stale == (gone.fingerprint(),)


class TestRunner:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import pandas\n\ndef f(x):\n    assert x\n")
        return pkg

    def test_findings_exit_one(self, dirty_tree):
        out = io.StringIO()
        assert run([str(dirty_tree)], stream=out) == EXIT_FINDINGS
        text = out.getvalue()
        assert "R001" in text and "R004" in text
        assert "2 new findings" in text

    def test_baseline_gates_to_zero(self, dirty_tree, tmp_path):
        baseline = tmp_path / "base.json"
        out = io.StringIO()
        assert (
            run(
                [str(dirty_tree)],
                baseline_path=str(baseline),
                update_baseline=True,
                stream=out,
            )
            == EXIT_CLEAN
        )
        out = io.StringIO()
        assert run([str(dirty_tree)], baseline_path=str(baseline), stream=out) == EXIT_CLEAN
        assert "0 new findings, 2 baselined" in out.getvalue()

    def test_stale_entries_fail_the_gate_after_fix(self, dirty_tree, tmp_path):
        # The ratchet must shrink: a fixed finding leaves a stale baseline
        # entry behind, and that is a failure until --prune-baseline runs.
        baseline = tmp_path / "base.json"
        run([str(dirty_tree)], baseline_path=str(baseline), update_baseline=True,
            stream=io.StringIO())
        (dirty_tree / "bad.py").write_text("import numpy\n")
        out = io.StringIO()
        assert run([str(dirty_tree)], baseline_path=str(baseline), stream=out) == EXIT_FINDINGS
        assert "2 stale baseline entries" in out.getvalue()

    def test_prune_baseline_drops_stale_entries_and_restores_clean(
        self, dirty_tree, tmp_path
    ):
        baseline = tmp_path / "base.json"
        run([str(dirty_tree)], baseline_path=str(baseline), update_baseline=True,
            stream=io.StringIO())
        (dirty_tree / "bad.py").write_text("import pandas\n")  # R004 fixed
        out = io.StringIO()
        assert (
            run([str(dirty_tree)], baseline_path=str(baseline), prune=True, stream=out)
            == EXIT_CLEAN
        )
        assert "1 dropped, 1 kept" in out.getvalue()
        out = io.StringIO()
        assert run([str(dirty_tree)], baseline_path=str(baseline), stream=out) == EXIT_CLEAN
        assert "0 new findings, 1 baselined, 0 stale" in out.getvalue()

    def test_stats_reports_cache_and_rule_counts(self, dirty_tree, tmp_path):
        cache = tmp_path / "cache.json"
        run([str(dirty_tree)], cache_path=str(cache), show_stats=True,
            stream=io.StringIO())
        out = io.StringIO()
        run([str(dirty_tree)], cache_path=str(cache), show_stats=True, stream=out)
        text = out.getvalue()
        assert "files analysed:  1 (1 cached, 0 fresh)" in text
        assert "analysis time:" in text
        assert "  R001: 1" in text and "  R004: 1" in text

    def test_stats_in_json_payload(self, dirty_tree):
        out = io.StringIO()
        run([str(dirty_tree)], output_format="json", show_stats=True, stream=out)
        payload = json.loads(out.getvalue())
        assert payload["stats"]["files"] == 1
        assert payload["stats"]["perRule"] == {"R001": 1, "R004": 1}

    def test_changed_only_reports_only_git_changed_files(
        self, tmp_path, monkeypatch
    ):
        import subprocess

        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "old.py").write_text("import pandas\n")
        env = {
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(tmp_path),
        }
        for cmd in (
            ["git", "init", "-q"],
            ["git", "add", "-A"],
            ["git", "-c", "user.name=t", "-c", "user.email=t@t",
             "commit", "-qm", "seed"],
        ):
            subprocess.run(cmd, cwd=tmp_path, check=True, env=env)
        (pkg / "new.py").write_text("def f(x):\n    assert x\n")
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        assert run(["pkg"], changed_only=True, stream=out) == EXIT_FINDINGS
        text = out.getvalue()
        # The untracked file's R004 is reported; the committed-and-clean
        # R001 in old.py is filtered out of the report.
        assert "R004" in text and "R001" not in text
        assert "1 new finding" in text

    def test_json_format_is_sarif_lite(self, dirty_tree):
        out = io.StringIO()
        run([str(dirty_tree)], output_format="json", stream=out)
        payload = json.loads(out.getvalue())
        assert payload["version"] == "repro-analysis/1"
        assert payload["summary"]["new"] == 2
        assert {r["id"] for r in payload["rules"]} == set(RULE_IDS)
        assert {f["rule"] for f in payload["findings"]} == {"R001", "R004"}

    def test_rule_filter(self, dirty_tree):
        out = io.StringIO()
        run([str(dirty_tree)], rule_ids=("R004",), stream=out)
        assert "R001" not in out.getvalue()

    def test_usage_errors_exit_two(self, dirty_tree, tmp_path):
        assert run(["/no/such/path"], stream=io.StringIO()) == EXIT_USAGE
        assert run([str(dirty_tree)], rule_ids=("R999",), stream=io.StringIO()) == EXIT_USAGE
        assert run([str(dirty_tree)], update_baseline=True, stream=io.StringIO()) == EXIT_USAGE

    def test_main_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for cls in RULE_CLASSES:
            assert cls.rule_id in out

    def test_main_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("import numpy\n")
        assert main([str(clean)]) == EXIT_CLEAN


# -- the engine never crashes on arbitrary syntactically-valid Python ----------

_IDENT = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s) and not keyword.issoftkeyword(s)
)
_EXPR = st.recursive(
    st.one_of(
        st.integers(-99, 99).map(str),
        _IDENT,
        st.just("set()"),
        st.just("[1, 2]"),
        st.just("{'a': 1}"),
        st.just("np.random.rand(3)"),
        st.just("random.random()"),
    ),
    lambda inner: st.tuples(inner, inner).map(lambda t: f"({t[0]} + {t[1]})"),
    max_leaves=4,
)


@st.composite
def _statement(draw):
    kind = draw(st.integers(0, 9))
    name = draw(_IDENT)
    expr = draw(_EXPR)
    if kind == 0:
        return f"{name} = {expr}"
    if kind == 1:
        return f"import {name}"
    if kind == 2:
        return f"from {name} import {draw(_IDENT)}"
    if kind == 3:
        return f"def {name}({draw(_IDENT)}={expr}):\n    return {expr}"
    if kind == 4:
        return f"class {name}:\n    pass"
    if kind == 5:
        return f"for {name} in {expr}:\n    pass"
    if kind == 6:
        return f"assert {expr}"
    if kind == 7:
        return f"if {expr}:\n    pass"
    if kind == 8:
        return f"{name} = lambda x={expr}: x"
    return f"__all__ = ['{name}']"


@settings(max_examples=120, deadline=None)
@given(st.lists(_statement(), min_size=0, max_size=6))
def test_engine_never_crashes_on_valid_python(stmts):
    source = "\n".join(stmts) + "\n"
    ast.parse(source)  # the strategy builds valid Python by construction
    project = ProjectContext(exported_names=frozenset({"exported_fn"}))
    for path in ("mod.py", "pkg/__init__.py", "core/mod.py"):
        findings = Analyzer(default_rules(), project=project).analyze_source(
            source, path=path
        )
        assert all(isinstance(f, Finding) for f in findings)
        assert findings == Analyzer(default_rules(), project=project).analyze_source(
            source, path=path
        )
