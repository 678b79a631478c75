"""Incremental cache semantics: warm/cold equivalence and invalidation
on edit, rename, delete, export change, and corruption."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis import analyze_project, cache_salt, default_rules, file_sha256
from repro.analysis import cache as cache_module


def make_project(root: Path) -> Path:
    pkg = root / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        '"""Pkg."""\n\nfrom .one import f_one\n\n__all__ = ["f_one"]\n'
    )
    (pkg / "one.py").write_text(
        '"""One."""\n\n\ndef f_one() -> int:\n    """One."""\n    return 1\n'
    )
    (pkg / "two.py").write_text(
        '"""Two."""\n\nimport pandas\n'  # R001 finding to cache
    )
    return pkg


def analyze(pkg: Path, cache: Path):
    return analyze_project([pkg], default_rules(), cache_path=cache)


class TestWarmCold:
    def test_warm_run_is_byte_identical_and_all_hits(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        cold = analyze(pkg, cache)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == 3
        warm = analyze(pkg, cache)
        assert warm.findings == cold.findings
        assert warm.stats.cache_hits == 3
        assert warm.stats.cache_misses == 0

    def test_cached_findings_round_trip(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        analyze(pkg, cache)
        warm = analyze(pkg, cache)
        assert any(
            f.rule_id == "R001" and "pandas" in f.message for f in warm.findings
        )


class TestInvalidation:
    def test_edit_reanalyzes_only_the_changed_file(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        analyze(pkg, cache)
        (pkg / "two.py").write_text('"""Two."""\n\nimport numpy\n')
        after = analyze(pkg, cache)
        assert after.stats.cache_misses == 1
        assert after.stats.cache_hits == 2
        assert not any(f.rule_id == "R001" for f in after.findings)

    def test_rename_ages_the_old_entry_out(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        analyze(pkg, cache)
        (pkg / "two.py").rename(pkg / "three.py")
        after = analyze(pkg, cache)
        # New path misses; old path's entry is dropped at save time.
        assert after.stats.cache_misses == 1
        payload = json.loads(cache.read_text())
        assert not any(key.endswith("two.py") for key in payload["files"])
        assert any(key.endswith("three.py") for key in payload["files"])

    def test_delete_drops_findings_and_entry(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        before = analyze(pkg, cache)
        assert any(f.rule_id == "R001" for f in before.findings)
        (pkg / "two.py").unlink()
        after = analyze(pkg, cache)
        assert not any(f.rule_id == "R001" for f in after.findings)
        payload = json.loads(cache.read_text())
        assert not any(key.endswith("two.py") for key in payload["files"])

    def test_export_change_invalidates_everything(self, tmp_path):
        # The salt covers the project __all__ surface (R005's per-file
        # verdicts depend on it), so an export change means a cold run.
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        analyze(pkg, cache)
        init = pkg / "__init__.py"
        init.write_text(init.read_text().replace('"f_one"', '"f_one", "f_two"'))
        after = analyze(pkg, cache)
        assert after.stats.cache_hits == 0
        assert after.stats.cache_misses == 3

    def test_analyzer_change_invalidates_everything(self, tmp_path, monkeypatch):
        # The salt covers the analyzer's own source: a rule whose behaviour
        # changes under an unchanged id must not be served stale findings.
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        analyze(pkg, cache)
        monkeypatch.setattr(cache_module, "analyzer_fingerprint", lambda: "edited")
        after = analyze(pkg, cache)
        assert after.stats.cache_hits == 0
        assert after.stats.cache_misses == 3

    def test_corrupt_cache_falls_back_to_cold(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        reference = analyze(pkg, cache)
        cache.write_text("{ not json")
        after = analyze(pkg, cache)
        assert after.stats.cache_hits == 0
        assert after.findings == reference.findings
        # And the run repaired the cache file for the next one.
        repaired = analyze(pkg, cache)
        assert repaired.stats.cache_misses == 0


class TestSalt:
    def test_salt_depends_on_rules_and_exports(self):
        base = cache_salt(("R001",), ("a",))
        assert base == cache_salt(("R001",), ("a",))
        assert base != cache_salt(("R001", "R002"), ("a",))
        assert base != cache_salt(("R001",), ("a", "b"))

    def test_analyzer_fingerprint_hashes_the_package_source(self):
        package = Path(cache_module.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package.rglob("*.py")):
            digest.update(path.read_bytes())
        assert cache_module.analyzer_fingerprint() == digest.hexdigest()

    def test_file_sha_tracks_content(self, tmp_path):
        f = tmp_path / "x.py"
        f.write_text("a = 1\n")
        first = file_sha256(f)
        f.write_text("a = 2\n")
        assert file_sha256(f) != first
