"""R001 — forbidden imports outside the sanctioned dependency envelope.

The reproduction is deliberately dependency-light: numpy + scipy +
networkx + the standard library.  Anything else (pandas, sklearn, torch,
requests, ...) silently changes numerical behaviour between environments
and breaks the "runs anywhere the paper's maths runs" guarantee, so any
import whose top-level package is neither stdlib nor sanctioned is flagged.
An inline ``# repro: ignore[R001]`` is the per-file escape.
"""

from __future__ import annotations

import ast
import sys
from typing import Iterable

from repro.analysis.engine import FileContext, Finding, Rule, SEVERITY_ERROR

#: Third-party packages the reproduction is allowed to depend on.
SANCTIONED_PACKAGES = frozenset({"numpy", "scipy", "networkx", "repro"})

_STDLIB = frozenset(sys.stdlib_module_names)


class ForbiddenImportRule(Rule):
    """Flag imports whose top-level package is outside the envelope."""

    rule_id = "R001"
    description = (
        "imports must stay inside the sanctioned envelope "
        "(stdlib + numpy/scipy/networkx)"
    )
    severity = SEVERITY_ERROR
    interests = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif node.level:  # relative import stays inside the package
            return
        else:
            tops = [(node.module or "").split(".")[0]]
        for top in tops:
            if top and top not in _STDLIB and top not in SANCTIONED_PACKAGES:
                yield self.finding(
                    ctx,
                    node,
                    f"import of {top!r} is outside the sanctioned "
                    f"dependency envelope",
                )
