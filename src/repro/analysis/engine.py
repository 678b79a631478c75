"""AST-walking static-analysis engine.

The engine parses each Python file once, walks the tree once, and dispatches
every node to the rules that registered an interest in its node type.  Rules
are small stateful objects implementing the :class:`Rule` contract; each file
gets a fresh :class:`FileContext` carrying the parsed tree, the source lines
and the project-wide :class:`ProjectContext` (public-API names gathered from
every package ``__init__``).

Findings are plain frozen dataclasses; inline suppressions of the form
``# repro: ignore`` or ``# repro: ignore[R001, R004]`` silence findings on
the same physical line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import AnalysisError

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)

#: Rule id used for findings produced by the engine itself (unparseable files).
PARSE_ERROR_ID = "E000"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific location.

    Ordering is lexicographic on ``(path, line, column, rule_id)`` so sorted
    findings read like compiler output.
    """

    path: str
    line: int
    column: int
    rule_id: str
    severity: str
    message: str

    def fingerprint(self) -> str:
        """Location-insensitive identity used by the baseline ratchet.

        The line/column are deliberately excluded so unrelated edits that
        shift a baselined finding do not break the gate.
        """
        return f"{self.path}::{self.rule_id}::{self.message}"

    def format(self) -> str:
        """Render as a one-line, compiler-style diagnostic."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )

    def to_dict(self) -> dict:
        """Plain-JSON representation (SARIF-lite result object)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class ProjectContext:
    """Cross-file facts gathered before per-file analysis.

    ``exported_names`` is the union of every ``__all__`` found in the
    analysed packages' ``__init__`` modules: the project's public API
    surface, used by the API-contract rule to decide which definitions
    must carry docstrings and annotations.
    """

    exported_names: frozenset[str] = frozenset()

    @classmethod
    def from_paths(cls, paths: Sequence[Path]) -> "ProjectContext":
        """Scan ``__init__.py`` files under ``paths`` and collect ``__all__``."""
        exported: set[str] = set()
        for init in _iter_init_files(paths):
            try:
                tree = ast.parse(init.read_text())
            except (SyntaxError, OSError, ValueError):
                continue  # the per-file pass reports the parse error
            exported.update(module_all(tree) or ())
        return cls(exported_names=frozenset(exported))


class FileContext:
    """Everything a rule may need while analysing one file."""

    def __init__(
        self,
        path: str,
        tree: ast.Module,
        source: str,
        project: ProjectContext | None = None,
    ) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()
        self.project = project if project is not None else ProjectContext()
        self._parts = Path(path).parts

    @property
    def is_package_init(self) -> bool:
        """True when the file under analysis is a package ``__init__.py``."""
        return Path(self.path).name == "__init__.py"

    def in_package(self, *parts: str) -> bool:
        """True when ``parts`` occur as consecutive components of the path."""
        n = len(parts)
        return any(
            self._parts[i: i + n] == parts
            for i in range(len(self._parts) - n + 1)
        )

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once."""
        return list(ast.walk(self.tree))

    @cached_property
    def _bindings(self) -> dict[str, str]:
        """Local name -> absolute dotted name, for every import in the file.

        Every ``import`` and absolute ``from ... import`` anywhere in the
        file counts, whatever its position; when a name is bound twice the
        lexicographically first target wins, as in
        :meth:`repro.analysis.project.ModuleFacts.binding`.  Relative
        imports are skipped.
        """
        pairs: set[tuple[str, str]] = set()
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        pairs.add((alias.asname, alias.name))
                    else:
                        head = alias.name.split(".")[0]
                        pairs.add((head, head))
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    if alias.name != "*":
                        target = f"{node.module}.{alias.name}"
                        pairs.add((alias.asname or alias.name, target))
        bindings: dict[str, str] = {}
        for local, target in sorted(pairs):
            bindings.setdefault(local, target)
        return bindings

    def resolve(self, node: ast.AST) -> str | None:
        """The absolute dotted name a Name or Attribute chain refers to.

        ``np.lib.format.open_memmap`` after ``import numpy as np`` resolves
        to ``"numpy.lib.format.open_memmap"``; a chain whose root is not an
        imported name resolves to None.
        """
        attrs: list[str] = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._bindings.get(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(attrs)])


class Rule:
    """Base class for analysis rules.

    Subclasses set ``rule_id``/``description``/``severity``, declare the AST
    node types they want via ``interests``, and yield :class:`Finding`
    objects from :meth:`visit`.  ``begin_file`` / ``end_file`` bracket each
    file for rules that accumulate state (e.g. import tracking).
    """

    rule_id: str = ""
    description: str = ""
    severity: str = SEVERITY_ERROR
    interests: tuple[type, ...] = ()

    def begin_file(self, ctx: FileContext) -> None:
        """Reset per-file state before ``ctx`` is walked."""

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Inspect one node whose type is listed in ``interests``."""
        return ()

    def end_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Emit findings that need the whole file (after the walk)."""
        return ()

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        severity: str | None = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            column=int(getattr(node, "col_offset", 0)) + 1,
            rule_id=self.rule_id,
            severity=self.severity if severity is None else severity,
            message=message,
        )


class Analyzer:
    """Walks files once and dispatches nodes to interested rules."""

    def __init__(
        self, rules: Sequence[Rule], project: ProjectContext | None = None
    ) -> None:
        if not rules:
            raise AnalysisError("an Analyzer needs at least one rule")
        seen: set[str] = set()
        for rule in rules:
            if not rule.rule_id:
                raise AnalysisError(f"rule {type(rule).__name__} has no rule_id")
            if rule.rule_id in seen:
                raise AnalysisError(f"duplicate rule id {rule.rule_id!r}")
            seen.add(rule.rule_id)
        self.rules = tuple(rules)
        self.project = project if project is not None else ProjectContext()
        self._dispatch: dict[type, tuple[Rule, ...]] = {}
        for rule in self.rules:
            for node_type in rule.interests:
                existing = self._dispatch.get(node_type, ())
                self._dispatch[node_type] = existing + (rule,)

    def analyze_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Analyse one source string; parse failures become E000 findings."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=int(exc.lineno or 1),
                    column=int(exc.offset or 0) or 1,
                    rule_id=PARSE_ERROR_ID,
                    severity=SEVERITY_ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        except ValueError as exc:  # e.g. source with null bytes
            return [
                Finding(
                    path=path,
                    line=1,
                    column=1,
                    rule_id=PARSE_ERROR_ID,
                    severity=SEVERITY_ERROR,
                    message=f"file does not parse: {exc}",
                )
            ]
        return self.analyze_parsed(tree, source, path)

    def analyze_parsed(
        self, tree: ast.Module, source: str, path: str = "<string>"
    ) -> list[Finding]:
        """Analyse an already-parsed module (single-parse fast path)."""
        ctx = FileContext(path, tree, source, project=self.project)
        findings: list[Finding] = []
        for rule in self.rules:
            rule.begin_file(ctx)
        for node in ctx.nodes:
            for rule in self._dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
        for rule in self.rules:
            findings.extend(rule.end_file(ctx))
        suppressed = suppressed_rules_by_line(source, tree)
        findings = [f for f in findings if not _is_suppressed(f, suppressed)]
        return sorted(findings)

    def analyze_file(self, path: Path, display_path: str | None = None) -> list[Finding]:
        """Analyse one file on disk."""
        shown = display_path if display_path is not None else _display(path)
        try:
            source = path.read_text()
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        return self.analyze_source(source, path=shown)


def analyze_paths(
    paths: Sequence[Path | str],
    rules: Sequence[Rule],
    project: ProjectContext | None = None,
) -> list[Finding]:
    """Analyse files and directory trees; directories are walked for ``*.py``.

    The :class:`ProjectContext` is built from the same paths when not given,
    so the API-contract rule sees the package's real export surface.  When
    ``rules`` contains whole-program rules (``whole_program = True``), the
    call is delegated to :func:`repro.analysis.driver.analyze_project`,
    which assembles the project model and runs them too.
    """
    if any(getattr(rule, "whole_program", False) for rule in rules):
        # Function-level import: driver depends on this module at top level.
        from repro.analysis.driver import analyze_project

        return list(analyze_project(paths, rules, project=project).findings)
    resolved = [Path(p) for p in paths]
    for p in resolved:
        if not p.exists():
            raise AnalysisError(f"no such file or directory: {p}")
    if project is None:
        project = ProjectContext.from_paths(resolved)
    analyzer = Analyzer(rules, project=project)
    findings: list[Finding] = []
    for source_file in iter_python_files(resolved):
        findings.extend(analyzer.analyze_file(source_file))
    return sorted(findings)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``*.py`` file under ``paths`` in deterministic order."""
    emitted: set[Path] = set()
    for p in paths:
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for candidate in candidates:
            if candidate not in emitted:
                emitted.add(candidate)
                yield candidate


def module_all(tree: ast.Module) -> list[str] | None:
    """Extract a module's ``__all__`` as a list of names, or None.

    Only literal list/tuple assignments are understood — the engine never
    executes the code it analyses.
    """
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    names = []
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.append(element.value)
                    return names
                return None
    return None


def suppressed_rules_by_line(
    source: str, tree: ast.Module | None = None
) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed rule ids (None means all rules).

    When ``tree`` is given, a suppression comment anywhere on a
    multi-line statement applies to the *whole* statement: the comment's
    rule set is spread across every physical line of the smallest
    enclosing simple statement (or the header of a compound statement,
    decorators included), so a finding anchored at the first line of a
    wrapped call is silenced by a comment on its closing line and vice
    versa.  Without ``tree`` only the comment's own line is covered.
    """
    suppressed: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = match.group(1)
        if ids is None:
            suppressed[lineno] = None
        else:
            suppressed[lineno] = frozenset(
                part.strip() for part in ids.split(",") if part.strip()
            )
    if tree is None or not suppressed:
        return suppressed
    for start, end in _statement_spans(tree):
        if end <= start:
            continue
        covered = [suppressed[n] for n in range(start, end + 1) if n in suppressed]
        if not covered:
            continue
        merged: frozenset[str] | None
        if any(ids is None for ids in covered):
            merged = None
        else:
            merged = frozenset().union(*covered)
        for n in range(start, end + 1):
            if merged is None:
                suppressed[n] = None
            elif n in suppressed and suppressed[n] is None:
                pass  # an all-rules suppression already covers this line
            else:
                suppressed[n] = suppressed.get(n, frozenset()) | merged
    return suppressed


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Physical-line spans over which a suppression comment is shared.

    Simple statements span their full ``lineno..end_lineno``; compound
    statements (``def``, ``if``, ``for``, ...) contribute only their
    header — from the first decorator down to the line before the body —
    so an ignore inside a function body never silences the whole
    function.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = int(getattr(node, "end_lineno", start) or start)
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = min(end, body[0].lineno - 1)
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min([start] + [d.lineno for d in decorators])
        if end > start:
            spans.append((start, end))
    return spans


def _is_suppressed(
    finding: Finding, suppressed: dict[int, frozenset[str] | None]
) -> bool:
    if finding.line not in suppressed:
        return False
    ids = suppressed[finding.line]
    return ids is None or finding.rule_id in ids


def _iter_init_files(paths: Sequence[Path]) -> Iterator[Path]:
    for p in paths:
        if p.is_dir():
            yield from sorted(p.rglob("__init__.py"))
        elif p.name == "__init__.py":
            yield p


def _display(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()
