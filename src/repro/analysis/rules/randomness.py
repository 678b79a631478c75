"""R002 — unseeded / global-state randomness.

Every stochastic step in the pipeline (sampling remedies, train/test
splits, synthetic data) must flow through ``np.random.default_rng(seed)``
or an explicitly passed ``Generator`` so runs are reproducible.  The rule
flags the two ways global RNG state sneaks in:

* legacy ``np.random.<fn>()`` calls (``rand``, ``randint``, ``seed``, ...)
  that read or mutate numpy's hidden global state;
* the stdlib ``random`` module in any form.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import FileContext, Finding, Rule, SEVERITY_ERROR
from repro.analysis.purity import SEEDABLE_CONSTRUCTORS


class UnseededRandomnessRule(Rule):
    """Flag global-state RNG usage (legacy numpy API, stdlib random)."""

    rule_id = "R002"
    description = (
        "randomness must use np.random.default_rng(seed) or a passed "
        "Generator, never global RNG state"
    )
    severity = SEVERITY_ERROR
    interests = (ast.ImportFrom, ast.Call)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            yield from self._visit_import_from(node, ctx)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield from self._visit_call(node, node.func, ctx)

    def _visit_import_from(
        self, node: ast.ImportFrom, ctx: FileContext
    ) -> Iterable[Finding]:
        if node.level:
            return
        if node.module == "random":
            yield self.finding(
                ctx,
                node,
                "stdlib 'random' uses global RNG state; use "
                "np.random.default_rng(seed) instead",
            )
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in SEEDABLE_CONSTRUCTORS:
                    yield self.finding(
                        ctx,
                        node,
                        f"numpy.random.{alias.name} uses the legacy global "
                        f"RNG; use np.random.default_rng(seed) instead",
                    )

    def _visit_call(
        self, node: ast.Call, func: ast.Attribute, ctx: FileContext
    ) -> Iterable[Finding]:
        owner = ctx.resolve(func.value)
        attr = func.attr
        if owner == "random":
            yield self.finding(
                ctx,
                node,
                f"stdlib random.{attr} uses global RNG state; use "
                f"np.random.default_rng(seed) instead",
            )
        elif owner == "numpy.random" and attr == "seed":
            yield self.finding(
                ctx,
                node,
                "np.random.seed mutates global RNG state; construct "
                "np.random.default_rng(seed) instead",
            )
        elif owner == "numpy.random" and attr not in SEEDABLE_CONSTRUCTORS:
            yield self.finding(
                ctx,
                node,
                f"np.random.{attr} uses the legacy global RNG; use "
                f"np.random.default_rng(seed) or a passed Generator",
            )
