"""Two-tier analysis driver: cached per-file rules + whole-program passes.

One call to :func:`analyze_project` runs the full pipeline:

1. every ``*.py`` file under the given paths is hashed; files whose
   sha256 matches the incremental cache reuse their stored per-file
   findings *and* extracted :class:`~repro.analysis.project.ModuleFacts`
   without re-parsing — a warm run re-parses nothing;
2. cache misses are parsed once, walked by the per-file rules
   (R001–R008, R015, R016), and fact-extracted, then written back to
   the cache;
3. the facts are assembled into a :class:`ProjectModel`, the purity
   fixpoint (:mod:`repro.analysis.purity`) is computed, and the
   whole-program rules (R009–R014) run over the model;
4. whole-program findings are filtered through the same (multi-line
   aware) ``# repro: ignore`` suppressions as per-file findings, merged,
   and sorted.

Output is deterministic — byte-identical across repeated runs, shuffled
input orderings, and warm/cold caches (tests/test_analysis_cache.py and
the hypothesis property in tests/test_analysis_project.py enforce this).
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.cache import AnalysisCache, cache_salt, file_sha256
from repro.analysis.engine import (
    Analyzer,
    Finding,
    PARSE_ERROR_ID,
    ProjectContext,
    Rule,
    SEVERITY_ERROR,
    _display,
    _is_suppressed,
    iter_python_files,
)
from repro.analysis.project import (
    ModuleFacts,
    ProjectModel,
    extract_module_facts,
    module_name_for,
)
from repro.analysis.purity import PurityReport
from repro.errors import AnalysisError

#: Sibling directories scanned (tokens only) as export consumers for R014.
CONSUMER_DIRS = ("tests", "examples", "benchmarks", "scripts")


@dataclass
class AnalysisStats:
    """Bookkeeping for ``--stats``: counts, cache behaviour, wall time."""

    n_files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    per_rule: dict[str, int] = field(default_factory=dict)

    def lines(self) -> list[str]:
        """Human-readable stats block."""
        out = [
            f"files analysed:  {self.n_files} "
            f"({self.cache_hits} cached, {self.cache_misses} fresh)",
            f"analysis time:   {self.wall_seconds:.2f}s",
        ]
        for rule_id in sorted(self.per_rule):
            out.append(f"  {rule_id}: {self.per_rule[rule_id]}")
        return out


@dataclass(frozen=True)
class AnalysisOutcome:
    """Sorted findings plus run statistics."""

    findings: tuple[Finding, ...]
    stats: AnalysisStats


def analyze_project(
    paths: Sequence[Path | str],
    rules: Sequence[Rule],
    project: ProjectContext | None = None,
    cache_path: Path | str | None = None,
) -> AnalysisOutcome:
    """Run per-file and whole-program rules over ``paths`` (see module doc)."""
    started = time.perf_counter()
    resolved = [Path(p) for p in paths]
    for p in resolved:
        if not p.exists():
            raise AnalysisError(f"no such file or directory: {p}")
    if project is None:
        project = ProjectContext.from_paths(resolved)

    file_rules = [r for r in rules if not getattr(r, "whole_program", False)]
    project_rules = [r for r in rules if getattr(r, "whole_program", False)]
    all_ids = tuple(r.rule_id for r in rules)
    cache = AnalysisCache(
        cache_path, cache_salt(all_ids, sorted(project.exported_names))
    )
    analyzer = Analyzer(file_rules, project=project) if file_rules else None

    findings: list[Finding] = []
    facts_by_module: dict[str, ModuleFacts] = {}
    files = sorted(iter_python_files(resolved), key=lambda p: _display(p))
    for source_file in files:
        display = _display(source_file)
        try:
            sha = file_sha256(source_file)
        except OSError as exc:
            raise AnalysisError(f"cannot read {source_file}: {exc}") from exc
        cached = cache.get(display, sha)
        if cached is not None:
            findings.extend(Finding(**f) for f in cached.get("findings", ()))
            if cached.get("facts") is not None:
                facts = ModuleFacts.from_dict(cached["facts"])
                facts_by_module[facts.module] = facts
            continue
        file_findings, facts = _analyze_one(
            analyzer, source_file, display, resolved, sha
        )
        findings.extend(file_findings)
        if facts is not None:
            facts_by_module[facts.module] = facts
        cache.put(
            display,
            sha,
            {
                "findings": [_finding_dict(f) for f in file_findings],
                "facts": facts.to_dict() if facts is not None else None,
            },
        )

    if project_rules:
        external_refs = _consumer_refs(resolved, cache)
        model = ProjectModel.build(
            facts_by_module.values(), external_refs=external_refs
        )
        purity = PurityReport(model)
        for rule in project_rules:
            for finding in rule.check_project(model, purity):
                suppressed = model.suppressions_for(finding.path)
                if not _is_suppressed(finding, suppressed):
                    findings.append(finding)

    cache.save()
    findings.sort()
    stats = AnalysisStats(
        n_files=len(files),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        wall_seconds=time.perf_counter() - started,
    )
    for finding in findings:
        stats.per_rule[finding.rule_id] = stats.per_rule.get(finding.rule_id, 0) + 1
    return AnalysisOutcome(findings=tuple(findings), stats=stats)


def _finding_dict(finding: Finding) -> dict:
    return {
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "rule_id": finding.rule_id,
        "severity": finding.severity,
        "message": finding.message,
    }


def _analyze_one(
    analyzer: Analyzer | None,
    source_file: Path,
    display: str,
    roots: Sequence[Path],
    sha: str,
) -> tuple[list[Finding], ModuleFacts | None]:
    """Parse once; run per-file rules and extract facts from the same tree."""
    try:
        source = source_file.read_text()
    except OSError as exc:
        raise AnalysisError(f"cannot read {source_file}: {exc}") from exc
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            path=display,
            line=int(exc.lineno or 1),
            column=int(exc.offset or 0) or 1,
            rule_id=PARSE_ERROR_ID,
            severity=SEVERITY_ERROR,
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], None
    except ValueError as exc:
        finding = Finding(
            path=display,
            line=1,
            column=1,
            rule_id=PARSE_ERROR_ID,
            severity=SEVERITY_ERROR,
            message=f"file does not parse: {exc}",
        )
        return [finding], None
    file_findings = (
        analyzer.analyze_parsed(tree, source, display) if analyzer is not None else []
    )
    module = module_name_for(source_file, roots)
    facts = extract_module_facts(source, tree, display, module, sha256=sha)
    return file_findings, facts


def _consumer_refs(roots: Sequence[Path], cache: AnalysisCache) -> frozenset[str]:
    """Token sets from sibling tests/examples/benchmarks/scripts trees.

    For an analysed root laid out as ``<repo>/src/<pkg>``, the repo's
    consumer directories are scanned for every Name / attribute /
    imported-alias token; R014 treats those tokens as external uses of
    the public export surface.  Files that fail to parse are skipped —
    consumers gate nothing themselves.
    """
    repo_roots: list[Path] = []
    for root in roots:
        root = Path(root).resolve()
        base = root if root.is_dir() else root.parent
        if base.parent.name == "src":
            repo_roots.append(base.parent.parent)
    tokens: set[str] = set()
    for repo in sorted(set(repo_roots)):
        for dirname in CONSUMER_DIRS:
            consumer_dir = repo / dirname
            if not consumer_dir.is_dir():
                continue
            for path in sorted(consumer_dir.rglob("*.py")):
                display = f"<consumer>{path.as_posix()}"
                try:
                    sha = file_sha256(path)
                except OSError:
                    continue
                cached = cache.get_refs(display, sha)
                if cached is not None:
                    tokens.update(cached)
                    continue
                file_tokens = _token_scan(path)
                cache.put_refs(display, sha, sorted(file_tokens))
                tokens.update(file_tokens)
    return frozenset(tokens)


def _token_scan(path: Path) -> set[str]:
    try:
        tree = ast.parse(path.read_text())
    except (OSError, SyntaxError, ValueError):
        return set()
    tokens: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            tokens.add(node.id)
        elif isinstance(node, ast.Attribute):
            tokens.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    tokens.add(alias.name.split(".")[-1])
                if alias.asname:
                    tokens.add(alias.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String references ("dt", "fig3.cell", getattr names) count.
            if node.value.isidentifier():
                tokens.add(node.value)
    return tokens
