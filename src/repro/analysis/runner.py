"""Command-line runner: ``python -m repro.analysis`` / ``repro analyze``.

Exit status is the gate: 0 when every finding is baselined (or none
exist) and no baseline entry is stale, 1 when new findings appear *or*
the baseline has gone stale (run ``--prune-baseline``), 2 on
usage/configuration errors.  Output is either compiler-style text or a
SARIF-lite JSON document.

Flags beyond the basics:

* ``--cache PATH``       incremental per-file cache (warm runs re-parse
  only changed files; a cold or corrupt cache silently falls back to a
  full analysis);
* ``--changed-only``     report only findings in files git considers
  changed (``git diff HEAD`` + untracked) — the whole project is still
  analysed so whole-program rules see every module;
* ``--stats``            append per-rule finding counts, cache hit/miss
  counts and analysis wall time to the report;
* ``--prune-baseline``   rewrite the baseline dropping stale entries and
  entries whose file no longer exists, then exit by the usual gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import (
    diff_against_baseline,
    load_baseline,
    load_baseline_entries,
    prune_baseline,
    write_baseline,
)
from repro.analysis.driver import AnalysisStats, analyze_project
from repro.analysis.engine import Finding
from repro.analysis.rules import RULE_CLASSES, default_rules
from repro.errors import AnalysisError

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

FORMAT_TEXT = "text"
FORMAT_JSON = "json"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the analysis runner."""
    return add_arguments(
        argparse.ArgumentParser(
            prog="repro.analysis",
            description=(
                "AST-based static analysis enforcing the repo's determinism, "
                "dependency and API contracts (per-file R001-R008, R015 and "
                "R016 plus whole-program R009-R014)"
            ),
        )
    )


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the analyzer's flags on ``parser``.

    Both entry points take their flags from here: this module's
    :func:`build_parser` and the ``repro analyze`` subcommand.
    """
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="JSON baseline of tolerated findings (missing file = empty)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop stale / missing-file baseline entries, then gate as usual",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="incremental analysis cache file (per-file sha256 -> facts)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="report only findings in git-changed files (full analysis "
        "still runs so whole-program rules see every module)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="append per-rule counts, cache hits and wall time to the report",
    )
    parser.add_argument(
        "--format",
        choices=(FORMAT_TEXT, FORMAT_JSON),
        default=FORMAT_TEXT,
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the available rules and exit",
    )
    return parser


def list_rules() -> str:
    """Human-readable table of the registered rules."""
    lines = []
    for cls in RULE_CLASSES:
        tier = "project" if getattr(cls, "whole_program", False) else "file"
        lines.append(
            f"{cls.rule_id}  [{cls.severity:7s}] [{tier:7s}]  {cls.description}"
        )
    return "\n".join(lines)


def changed_files() -> frozenset[str]:
    """Paths git considers changed: tracked diffs vs HEAD plus untracked.

    Paths are repo-root-relative POSIX strings, converted to be relative
    to the current working directory so they match finding paths.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        raise AnalysisError(f"--changed-only requires git: {exc}") from exc
    root = Path(top)
    out: set[str] = set()
    for line in (diff + untracked).splitlines():
        line = line.strip()
        if not line:
            continue
        absolute = root / line
        try:
            out.add(absolute.relative_to(Path.cwd()).as_posix())
        except ValueError:
            out.add(absolute.as_posix())
    return frozenset(out)


def render_text(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Sequence[str],
    stats: AnalysisStats | None = None,
) -> str:
    """Render findings as compiler-style lines plus a summary."""
    lines = [f.format() for f in new]
    summary = (
        f"{len(new)} new finding{'s' if len(new) != 1 else ''}, "
        f"{len(baselined)} baselined, {len(stale)} stale baseline "
        f"entr{'ies' if len(stale) != 1 else 'y'}"
    )
    for fingerprint in stale:
        lines.append(
            f"stale baseline entry (fixed? run --prune-baseline): {fingerprint}"
        )
    lines.append(summary)
    if stats is not None:
        lines.extend(stats.lines())
    return "\n".join(lines)


def render_json(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Sequence[str],
    stats: AnalysisStats | None = None,
) -> str:
    """Render findings as a SARIF-lite JSON document."""
    payload = {
        "version": "repro-analysis/1",
        "rules": [
            {
                "id": cls.rule_id,
                "severity": cls.severity,
                "tier": (
                    "project" if getattr(cls, "whole_program", False) else "file"
                ),
                "description": cls.description,
            }
            for cls in RULE_CLASSES
        ],
        "findings": [f.to_dict() for f in new],
        "baselined": [f.to_dict() for f in baselined],
        "staleBaselineEntries": list(stale),
        "summary": {
            "new": len(new),
            "baselined": len(baselined),
            "stale": len(stale),
        },
    }
    if stats is not None:
        payload["stats"] = {
            "files": stats.n_files,
            "cacheHits": stats.cache_hits,
            "cacheMisses": stats.cache_misses,
            "wallSeconds": round(stats.wall_seconds, 3),
            "perRule": dict(sorted(stats.per_rule.items())),
        }
    return json.dumps(payload, indent=2)


def run(
    paths: Sequence[str],
    baseline_path: str | None = None,
    update_baseline: bool = False,
    prune: bool = False,
    output_format: str = FORMAT_TEXT,
    rule_ids: Sequence[str] | None = None,
    cache_path: str | None = None,
    changed_only: bool = False,
    show_stats: bool = False,
    stream: object = None,
) -> int:
    """Analyse ``paths`` and report; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    try:
        rules = default_rules(tuple(rule_ids) if rule_ids is not None else None)
        outcome = analyze_project(
            [Path(p) for p in paths], rules, cache_path=cache_path
        )
        findings = list(outcome.findings)
        if update_baseline:
            if baseline_path is None:
                raise AnalysisError("--update-baseline requires --baseline")
            previous = {
                e.fingerprint: e.reason
                for e in load_baseline_entries(baseline_path)
                if e.reason
            }
            count = write_baseline(baseline_path, findings, reasons=previous)
            print(
                f"baseline {baseline_path} updated ({count} entr"
                f"{'ies' if count != 1 else 'y'})",
                file=out,
            )
            return EXIT_CLEAN
        if prune:
            if baseline_path is None:
                raise AnalysisError("--prune-baseline requires --baseline")
            kept, dropped = prune_baseline(baseline_path, findings)
            print(
                f"baseline {baseline_path} pruned ({dropped} dropped, "
                f"{kept} kept)",
                file=out,
            )
        baseline = (
            load_baseline(baseline_path) if baseline_path is not None else frozenset()
        )
        changed = changed_files() if changed_only else None
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Staleness is judged on the *full* finding set — --changed-only only
    # narrows what is reported/gated to the changed files.
    diff = diff_against_baseline(findings, baseline)
    new, baselined = diff.new, diff.baselined
    if changed is not None:
        new = tuple(f for f in new if f.path in changed)
        baselined = tuple(f for f in baselined if f.path in changed)
    renderer = render_json if output_format == FORMAT_JSON else render_text
    stats = outcome.stats if show_stats else None
    print(renderer(new, baselined, diff.stale, stats), file=out)
    # Stale entries fail the gate: the ratchet must shrink the file, not
    # silently tolerate entries whose finding no longer exists.
    return EXIT_FINDINGS if (new or diff.stale) else EXIT_CLEAN


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    return run_args(build_parser().parse_args(argv))


def run_args(args: argparse.Namespace) -> int:
    """Run on the flags of :func:`add_arguments`; returns the exit code.

    The one body behind ``python -m repro.analysis`` and ``repro analyze``.
    """
    if args.list_rules:
        print(list_rules())
        return EXIT_CLEAN
    rule_ids = None
    if args.rules is not None:
        rule_ids = tuple(part.strip() for part in args.rules.split(",") if part.strip())
    return run(
        args.paths,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
        prune=args.prune_baseline,
        output_format=args.format,
        rule_ids=rule_ids,
        cache_path=args.cache,
        changed_only=args.changed_only,
        show_stats=args.stats,
    )
