"""Per-rule tests: each rule fires on its violating fixture and stays
silent on the clean one (tests/fixtures/analysis/)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    Analyzer,
    ProjectContext,
    RULE_IDS,
    default_rules,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


def run_rule(rule_id, relpath, project=None):
    analyzer = Analyzer(default_rules((rule_id,)), project=project)
    return analyzer.analyze_file(FIXTURES / relpath)


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestR001ForbiddenImports:
    def test_fires_on_violation(self):
        findings = run_rule("R001", "r001_violation.py")
        assert len(findings) == 3
        assert rule_ids(findings) == {"R001"}
        assert any("pandas" in f.message for f in findings)
        assert any("torch" in f.message for f in findings)
        assert any("sklearn" in f.message for f in findings)

    def test_silent_on_clean(self):
        assert run_rule("R001", "r001_clean.py") == []

    def test_relative_imports_allowed(self):
        analyzer = Analyzer(default_rules(("R001",)))
        assert analyzer.analyze_source("from . import sibling\n") == []


class TestR002UnseededRandomness:
    def test_fires_on_violation(self):
        findings = run_rule("R002", "r002_violation.py")
        assert len(findings) == 6
        assert rule_ids(findings) == {"R002"}
        assert any("np.random.seed" in f.message for f in findings)

    def test_silent_on_clean(self):
        assert run_rule("R002", "r002_clean.py") == []

    def test_numpy_random_alias(self):
        analyzer = Analyzer(default_rules(("R002",)))
        src = "import numpy.random as npr\nx = npr.rand(3)\n"
        assert len(analyzer.analyze_source(src)) == 1
        src = "import numpy.random as npr\nrng = npr.default_rng(0)\n"
        assert analyzer.analyze_source(src) == []


class TestR003MutableDefaults:
    def test_fires_on_violation(self):
        findings = run_rule("R003", "r003_violation.py")
        assert len(findings) == 4
        assert rule_ids(findings) == {"R003"}

    def test_silent_on_clean(self):
        assert run_rule("R003", "r003_clean.py") == []

    def test_lambda_default(self):
        analyzer = Analyzer(default_rules(("R003",)))
        assert len(analyzer.analyze_source("f = lambda xs=[]: xs\n")) == 1


class TestR004BareAssert:
    def test_fires_on_violation(self):
        findings = run_rule("R004", "r004_violation.py")
        assert len(findings) == 2
        assert rule_ids(findings) == {"R004"}
        assert all("repro.errors" in f.message for f in findings)

    def test_silent_on_clean(self):
        assert run_rule("R004", "r004_clean.py") == []


class TestR005PublicApiContract:
    def test_init_drift_fires(self):
        findings = run_rule("R005", "r005_pkg_violation/__init__.py")
        assert rule_ids(findings) == {"R005"}
        messages = sorted(f.message for f in findings)
        assert len(findings) == 2
        assert any("vanished_helper" in m and "__all__" in m for m in messages)
        assert any("join" in m and "missing from __all__" in m for m in messages)
        severities = {f.message: f.severity for f in findings}
        stale = next(m for m in messages if "vanished_helper" in m)
        unlisted = next(m for m in messages if "join" in m)
        assert severities[stale] == "error"
        assert severities[unlisted] == "warning"

    def test_init_clean_is_silent(self):
        assert run_rule("R005", "r005_pkg_clean/__init__.py") == []

    def test_missing_all_warns(self):
        analyzer = Analyzer(default_rules(("R005",)))
        findings = analyzer.analyze_source(
            "from json import dumps\n", path="pkg/__init__.py"
        )
        assert len(findings) == 1
        assert "no literal __all__" in findings[0].message

    def test_module_contract_fires(self):
        project = ProjectContext(
            exported_names=frozenset({"exported_fn", "ExportedThing"})
        )
        findings = run_rule("R005", "r005_module_violation.py", project=project)
        assert rule_ids(findings) == {"R005"}
        # exported_fn: no docstring, unannotated params, no return annotation;
        # ExportedThing: no docstring.  _private / unexported stay unflagged.
        assert len(findings) == 4
        assert not any("_private" in f.message for f in findings)
        assert not any("unexported" in f.message for f in findings)

    def test_module_clean_is_silent(self):
        project = ProjectContext(
            exported_names=frozenset({"exported_fn", "ExportedThing"})
        )
        assert run_rule("R005", "r005_module_clean.py", project=project) == []

    def test_module_without_project_context_is_silent(self):
        assert run_rule("R005", "r005_module_violation.py") == []


class TestR006SetIteration:
    def test_fires_under_core(self):
        findings = run_rule("R006", "core/r006_violation.py")
        assert len(findings) == 3
        assert rule_ids(findings) == {"R006"}
        assert all(f.severity == "warning" for f in findings)

    def test_silent_on_sorted(self):
        assert run_rule("R006", "core/r006_clean.py") == []

    def test_silent_outside_result_paths(self):
        assert run_rule("R006", "r006_outside_core.py") == []


class TestR007BroadExcept:
    def test_fires_on_violation(self):
        findings = run_rule("R007", "r007_violation.py")
        assert len(findings) == 4
        assert rule_ids(findings) == {"R007"}
        assert any("bare except" in f.message for f in findings)
        assert any("(Exception)" in f.message for f in findings)
        assert any("(BaseException)" in f.message for f in findings)

    def test_silent_on_clean(self):
        assert run_rule("R007", "r007_clean.py") == []

    def test_executor_degradation_point_is_marked(self):
        """The resilience executor's own broad handler carries the marker."""
        repo_src = FIXTURES.parent.parent.parent / "src" / "repro"
        analyzer = Analyzer(default_rules(("R007",)))
        assert analyzer.analyze_file(repo_src / "resilience" / "executor.py") == []


class TestR008ProcessPrimitives:
    def test_fires_on_violation(self):
        findings = run_rule("R008", "r008_violation.py")
        assert len(findings) == 11
        assert rule_ids(findings) == {"R008"}
        assert any("signal.alarm" in f.message for f in findings)
        assert any("signal.setitimer" in f.message for f in findings)
        assert any("os.fork" in f.message for f in findings)
        assert any("multiprocessing.Process" in f.message for f in findings)
        assert any("SharedMemory" in f.message for f in findings)
        assert any(
            "multiprocessing.shared_memory" in f.message for f in findings
        )
        assert all("repro.resilience" in f.message for f in findings)

    def test_silent_on_clean(self):
        assert run_rule("R008", "r008_clean.py") == []

    def test_resilience_subpackage_is_exempt(self):
        analyzer = Analyzer(default_rules(("R008",)))
        src = "import signal\nsignal.alarm(1)\n"
        assert analyzer.analyze_source(src, path="src/repro/x.py") != []
        assert (
            analyzer.analyze_source(src, path="src/repro/resilience/x.py") == []
        )

    def test_module_alias_is_tracked(self):
        analyzer = Analyzer(default_rules(("R008",)))
        src = "import multiprocessing as mp\np = mp.Process(target=print)\n"
        assert len(analyzer.analyze_source(src)) == 1

    def test_shared_memory_alias_forms_are_tracked(self):
        analyzer = Analyzer(default_rules(("R008",)))
        aliased = (
            "import multiprocessing.shared_memory as sm\n"
            "seg = sm.SharedMemory(name='x')\n"
        )
        # The aliased import and its use are one finding each.
        assert len(analyzer.analyze_source(aliased)) == 2
        direct = "from multiprocessing import shared_memory\n"
        assert len(analyzer.analyze_source(direct)) == 1
        submodule = (
            "from multiprocessing.shared_memory import ShareableList\n"
        )
        assert len(analyzer.analyze_source(submodule)) == 1

    def test_own_pool_and_executor_are_exempt_and_clean(self):
        """The pool/executor/shm use the primitives, but live in resilience."""
        repo_src = FIXTURES.parent.parent.parent / "src" / "repro"
        analyzer = Analyzer(default_rules(("R008",)))
        assert analyzer.analyze_file(repo_src / "resilience" / "pool.py") == []
        assert (
            analyzer.analyze_file(repo_src / "resilience" / "executor.py") == []
        )
        assert analyzer.analyze_file(repo_src / "resilience" / "shm.py") == []


class TestR015StoreIo:
    def test_fires_on_violation(self):
        findings = run_rule("R015", "r015_violation.py")
        assert len(findings) == 6
        assert rule_ids(findings) == {"R015"}
        assert sum("open_memmap" in f.message for f in findings) == 3
        assert sum("mmap_mode" in f.message for f in findings) == 2
        assert any("manifest.json" in f.message for f in findings)
        assert all("repro.data.store" in f.message for f in findings)

    def test_silent_on_clean(self):
        assert run_rule("R015", "r015_clean.py") == []

    def test_store_package_is_exempt(self):
        analyzer = Analyzer(default_rules(("R015",)))
        src = "import numpy as np\na = np.load('s.npy', mmap_mode='r')\n"
        assert analyzer.analyze_source(src, path="src/repro/data/x.py") != []
        assert (
            analyzer.analyze_source(src, path="src/repro/data/store/x.py")
            == []
        )
        # The exemption needs the *consecutive* pair, not either name alone.
        assert (
            analyzer.analyze_source(src, path="src/other/store/x.py") != []
        )

    def test_from_import_of_load_is_resolved(self):
        analyzer = Analyzer(default_rules(("R015",)))
        src = "from numpy import load\na = load('s.npy', mmap_mode='r')\n"
        findings = analyzer.analyze_source(src, path="src/repro/data/x.py")
        assert [(f.line, f.rule_id) for f in findings] == [(2, "R015")]
        assert "numpy.load with mmap_mode" in findings[0].message

    def test_numpy_memmap_is_reserved(self):
        analyzer = Analyzer(default_rules(("R015",)))
        src = "import numpy as np\na = np.memmap('s.dat')\n"
        findings = analyzer.analyze_source(src, path="src/repro/data/x.py")
        assert [(f.line, f.rule_id) for f in findings] == [(2, "R015")]
        assert "numpy.memmap" in findings[0].message
        assert (
            analyzer.analyze_source(src, path="src/repro/data/store/x.py")
            == []
        )

    def test_manifest_literal_must_match_exactly(self):
        analyzer = Analyzer(default_rules(("R015",)))
        assert analyzer.analyze_source("p = d / 'manifest.json'\n") != []
        assert analyzer.analyze_source("p = 'run.manifest.json'\n") == []

    def test_own_store_package_is_exempt_and_clean(self):
        """The store modules mmap and write manifests, but that's their job."""
        repo_src = FIXTURES.parent.parent.parent / "src" / "repro"
        analyzer = Analyzer(default_rules(("R015",)))
        for name in ("format.py", "sharded.py", "registry.py"):
            assert analyzer.analyze_file(
                repo_src / "data" / "store" / name
            ) == []


class TestR016NetIo:
    def test_fires_on_violation(self):
        findings = run_rule("R016", "r016_violation.py")
        assert len(findings) == 9
        assert rule_ids(findings) == {"R016"}
        assert any("import of socket" in f.message for f in findings)
        assert any("ThreadingHTTPServer" in f.message for f in findings)
        assert any("http.client" in f.message for f in findings)
        assert any("urllib.request" in f.message for f in findings)
        assert any("use of http.client" in f.message for f in findings)
        assert all("repro.serve" in f.message for f in findings)

    def test_silent_on_clean(self):
        assert run_rule("R016", "r016_clean.py") == []

    def test_serve_subpackage_is_exempt(self):
        analyzer = Analyzer(default_rules(("R016",)))
        src = "import socket\n"
        assert analyzer.analyze_source(src, path="src/repro/stream/x.py") != []
        assert analyzer.analyze_source(src, path="src/repro/serve/x.py") == []

    def test_submodule_import_binds_its_package_for_uses(self):
        # ``import http.client`` binds ``http``, so the use is caught too,
        # with or without a bare ``import http`` in the same file.
        analyzer = Analyzer(default_rules(("R016",)))
        src = "import http.client\nc = http.client.HTTPConnection('h')\n"
        findings = analyzer.analyze_source(src)
        assert [f.line for f in findings] == [1, 2]
        assert "use of http.client" in findings[1].message

    def test_non_wire_http_members_are_legal(self):
        analyzer = Analyzer(default_rules(("R016",)))
        assert analyzer.analyze_source("from http import HTTPStatus\n") == []
        assert analyzer.analyze_source("import http\nx = http.HTTPStatus.OK\n") == []

    def test_self_application_is_clean(self):
        """The serve package itself (the sanctioned user) passes the rule,
        and so does the chaos drill module, which reaches the gateway only
        through GatewayClient."""
        repo_src = FIXTURES.parent.parent.parent / "src" / "repro"
        analyzer = Analyzer(default_rules(("R016",)))
        for path in (
            "serve/gateway.py", "serve/client.py", "serve/protocol.py",
            "resilience/chaos.py",
        ):
            assert analyzer.analyze_file(repo_src / path) == []


# The whole-program rules fire over assembled mini-projects, not single
# files; each maps to the fixture project that exercises it.
_PROJECT_FIXTURE = {
    "R009": "taint",
    "R010": "taint",
    "R011": "taint",
    "R012": "taint",
    "R013": "cycle",
    "R014": "exports",
}


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_every_rule_has_an_exercised_fixture(rule_id):
    """Acceptance guard: every registered rule fires under fixtures/."""
    if rule_id in _PROJECT_FIXTURE:
        from repro.analysis import analyze_project

        root = FIXTURES / "project" / _PROJECT_FIXTURE[rule_id] / "src"
        pkgs = sorted(p for p in root.iterdir() if p.is_dir())
        outcome = analyze_project(pkgs, default_rules((rule_id,)))
        findings = list(outcome.findings)
    else:
        project = ProjectContext(
            exported_names=frozenset({"exported_fn", "ExportedThing"})
        )
        analyzer = Analyzer(default_rules((rule_id,)), project=project)
        findings = []
        for path in sorted(FIXTURES.rglob("*.py")):
            if (FIXTURES / "project") in path.parents:
                continue
            findings.extend(analyzer.analyze_file(path))
    assert any(f.rule_id == rule_id for f in findings)
