"""R006 — nondeterministic iteration over sets in result-producing code.

Iterating a ``set`` yields hash order, which varies across interpreter
runs (``PYTHONHASHSEED``) — poison for the reproducibility claims of the
identification (``core/``) and auditing (``audit/``) paths, where
iteration order can change which region is reported first or how ties
break.  The rule flags ``for ... in`` loops and comprehension generators
whose iterable is syntactically a set (literal, comprehension or
``set(...)`` call); wrapping in ``sorted(...)`` is the deterministic fix
and is naturally not flagged.  Other subpackages may iterate sets freely.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import FileContext, Finding, Rule, SEVERITY_WARNING

#: Subpackages whose outputs feed reported results.
RESULT_SUBPACKAGES = ("core", "audit")


class SetIterationRule(Rule):
    """Flag iteration over syntactic sets in result-producing subpackages."""

    rule_id = "R006"
    description = (
        "result-producing code must not iterate sets; sort first for "
        "deterministic order"
    )
    severity = SEVERITY_WARNING
    interests = (ast.For, ast.AsyncFor, ast.comprehension)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not any(ctx.in_package(name) for name in RESULT_SUBPACKAGES):
            return
        iterable = node.iter  # type: ignore[union-attr]
        if _is_set_expression(iterable):
            yield self.finding(
                ctx,
                iterable,
                "iteration over an unordered set; wrap in sorted(...) for "
                "deterministic order",
            )


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False
