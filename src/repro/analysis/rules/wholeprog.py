"""Whole-program rules R009–R014 over the project model + purity report.

Unlike R001–R008, these rules cannot be evaluated one file at a time:
each receives the assembled :class:`~repro.analysis.project.ProjectModel`
and the transitive :class:`~repro.analysis.purity.PurityReport` and
checks a cross-module invariant:

* **R009 determinism taint** — entry points (functions exported through
  ``__all__`` in ``core``/``experiments``/``audit`` subpackages, plus
  every registered worker cell) must not transitively reach unseeded
  randomness or wall-clock reads.  Wall-clock witnesses originating in
  ``repro.obs`` / ``repro.resilience`` are exempt: span timing and
  deadline bookkeeping are proven semantically inert / result-invariant
  by their own test suites.
* **R010 worker-cell safety** — every ``@register_cell`` function must
  be module-level, must not transitively mutate module globals, and its
  parameter defaults must be structurally picklable.
* **R011 checkpoint-key stability** — ``CellSpec(key=...)`` /
  ``run_cell(key, ...)`` expressions must be built from deterministic
  inputs only (no time/RNG/pid/``id``/``hash`` and no calls into tainted
  project functions).
* **R012 obs inertness** — library code must not branch on ambient
  tracer/metric state; only the obs plumbing and the CLI driver may.
* **R013 import cycles** — the project-internal module graph (top-level
  imports only) must be acyclic.
* **R014 dead public exports** — warning for ``__all__`` entries no
  project code, test, example, benchmark or script ever references.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import Finding, Rule, SEVERITY_ERROR, SEVERITY_WARNING
from repro.analysis.project import (
    FUNCTION,
    LOCALS_MARKER,
    MODULE_SCOPE,
    CallSite,
    ProjectModel,
)
from repro.analysis.purity import (
    FACT_CLOCK,
    FACT_GLOBAL,
    FACT_PROCESS,
    FACT_RNG,
    FACT_TRACER,
    PurityReport,
    classify_external,
)

#: Subpackage segments whose exported functions are R009 taint roots.
ROOT_SEGMENTS = frozenset({"core", "experiments", "audit"})

#: Module segments exempt from wall-clock taint (inert instrumentation /
#: deadline bookkeeping, proven result-invariant by their own suites).
CLOCK_EXEMPT_SEGMENTS = frozenset({"obs", "resilience"})

#: Subpackages (the segment directly under the project root) whose clock
#: reads are exempt: the stream journal stamps batch manifests with wall
#: time as chain-covered integrity metadata, never as replayed state (its
#: byte-identity property pins that).  Position-scoped on purpose — a
#: module merely *named* ``stream`` deeper in the tree gets no exemption.
CLOCK_EXEMPT_SUBPACKAGES = frozenset({"stream"})

#: Module basenames allowed to read/branch on ambient tracer state: the obs
#: plumbing itself, the CLI driver, and the chaos drill module.
OBS_EXEMPT_BASENAMES = frozenset({"cli", "__main__", "chaos", "ci"})

#: Primitives that are nondeterministic across runs inside a cell key.
_UNSTABLE_KEY_CALLS = frozenset({"id", "hash", "os.getpid", "os.urandom"})
_UNSTABLE_KEY_PREFIXES = ("uuid.",)


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Subclasses implement :meth:`check_project` instead of ``visit``; the
    driver calls it once per run with the assembled model and purity
    report.  Findings are subject to the same per-line suppressions and
    baseline ratchet as per-file findings.
    """

    whole_program = True

    def check_project(
        self, model: ProjectModel, purity: PurityReport
    ) -> Iterable[Finding]:
        """Yield findings over the whole project."""
        return ()

    def project_finding(
        self, path: str, site: CallSite | None, message: str, line: int = 1, col: int = 1
    ) -> Finding:
        """Build a finding anchored at ``site`` (or an explicit line/col)."""
        if site is not None:
            line, col = site.line, site.col
        return Finding(
            path=path,
            line=line,
            column=col,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


def _module_segments(module: str) -> frozenset[str]:
    return frozenset(module.split("."))


def _clock_exempt(module: str) -> bool:
    """Whether a clock fact originating in ``module`` is sanctioned."""
    if _module_segments(module) & CLOCK_EXEMPT_SEGMENTS:
        return True
    parts = module.split(".")
    return len(parts) >= 2 and parts[1] in CLOCK_EXEMPT_SUBPACKAGES


def _fn_location(model: ProjectModel, fn_id: str) -> tuple[str, int, int]:
    resolved = model.functions[fn_id]
    facts = resolved.facts
    path = model.modules[resolved.module].path
    return path, facts.line, facts.col


def _short(fn_id: str) -> str:
    """``pkg.mod:fn`` -> ``mod.fn`` for compact witness chains."""
    module, _, qual = fn_id.partition(":")
    return f"{module.split('.')[-1]}.{qual}"


def taint_roots(model: ProjectModel) -> list[str]:
    """R009 entry points: exported core/experiments/audit fns + cells."""
    roots: set[str] = set()
    for module, _name, kind, target in model.exported_symbols():
        if kind != FUNCTION:
            continue
        if _module_segments(module) & ROOT_SEGMENTS:
            roots.add(target)
    for fn_id in model.functions:
        if model.functions[fn_id].facts.cell_ids:
            roots.add(fn_id)
    return sorted(roots)


class DeterminismTaintRule(ProjectRule):
    """R009 — entry points must not reach unseeded RNG or wall-clock."""

    rule_id = "R009"
    description = (
        "engine/remedy/experiment entry points must not transitively reach "
        "unseeded randomness or wall-clock ordering"
    )
    severity = SEVERITY_ERROR

    def check_project(
        self, model: ProjectModel, purity: PurityReport
    ) -> Iterable[Finding]:
        for fn_id in taint_roots(model):
            for fact, label in ((FACT_RNG, "unseeded randomness"), (FACT_CLOCK, "wall-clock ordering")):
                witness = purity.facts_of(fn_id).get(fact)
                if witness is None:
                    continue
                origin_module = witness.origin.partition(":")[0]
                if fact == FACT_CLOCK and _clock_exempt(origin_module):
                    continue
                path, line, col = _fn_location(model, fn_id)
                chain = " -> ".join(_short(c) for c in witness.chain) or "(direct)"
                yield self.project_finding(
                    path,
                    None,
                    f"entry point '{_short(fn_id)}' reaches {label} "
                    f"({witness.detail}) through {chain}",
                    line=line,
                    col=col,
                )


class WorkerCellSafetyRule(ProjectRule):
    """R010 — registered worker cells must be pool-safe."""

    rule_id = "R010"
    description = (
        "register_cell functions must be module-level, free of module-global "
        "mutation, and take structurally picklable parameters"
    )
    severity = SEVERITY_ERROR

    def check_project(
        self, model: ProjectModel, purity: PurityReport
    ) -> Iterable[Finding]:
        for fn_id in sorted(model.functions):
            resolved = model.functions[fn_id]
            facts = resolved.facts
            if not facts.cell_ids:
                continue
            path = model.modules[resolved.module].path
            cell = facts.cell_ids[0]
            if facts.is_nested or LOCALS_MARKER in facts.qualname or facts.in_class:
                yield self.project_finding(
                    path,
                    None,
                    f"cell '{cell}' ({facts.qualname}) is not a module-level "
                    f"function; spawned workers cannot import it by name",
                    line=facts.line,
                    col=facts.col,
                )
            witness = purity.facts_of(fn_id).get(FACT_GLOBAL)
            if witness is not None:
                chain = " -> ".join(_short(c) for c in witness.chain) or "(direct)"
                yield self.project_finding(
                    path,
                    None,
                    f"cell '{cell}' mutates module-global state "
                    f"({witness.detail}) through {chain}; cells must be "
                    f"side-effect-free so parallel workers cannot race",
                    line=facts.line,
                    col=facts.col,
                )
            for param in facts.params:
                if param.default_kind in ("required", "constant", "name"):
                    continue
                yield self.project_finding(
                    path,
                    None,
                    f"cell '{cell}' parameter '{param.name}' has a "
                    f"non-picklable default ({param.default_kind}); cell "
                    f"params cross the process boundary as pickled data",
                    line=param.line,
                    col=param.col + 1,
                )


class CheckpointKeyStabilityRule(ProjectRule):
    """R011 — cell keys must be deterministic across runs."""

    rule_id = "R011"
    description = (
        "CellSpec/run_cell key expressions must use only deterministic "
        "inputs (no time, RNG, pid, id() or hash())"
    )
    severity = SEVERITY_ERROR

    def check_project(
        self, model: ProjectModel, purity: PurityReport
    ) -> Iterable[Finding]:
        for module_name in sorted(model.modules):
            mod = model.modules[module_name]
            # Resolution only needs the import bindings, so the module
            # pseudo-function stands in for whatever scope held the key.
            module_fn = mod.function_map()[MODULE_SCOPE]
            for key in mod.key_exprs:
                for site in key.calls:
                    kind, target = model.resolve_call(mod, module_fn, site)
                    if kind == FUNCTION:
                        for fact, label in (
                            (FACT_RNG, "unseeded randomness"),
                            (FACT_CLOCK, "wall-clock"),
                            (FACT_PROCESS, "process state"),
                        ):
                            if purity.has_fact(target, fact):
                                yield self.project_finding(
                                    mod.path,
                                    site,
                                    f"cell key calls '{site.name}' which "
                                    f"reaches {label}; checkpoint keys must "
                                    f"be stable across runs",
                                )
                                break
                        continue
                    resolved = target
                    fact = classify_external(resolved)
                    unstable = (
                        resolved in _UNSTABLE_KEY_CALLS
                        or resolved.startswith(_UNSTABLE_KEY_PREFIXES)
                        or fact in (FACT_RNG, FACT_CLOCK, FACT_PROCESS)
                    )
                    if unstable:
                        yield self.project_finding(
                            mod.path,
                            site,
                            f"cell key uses nondeterministic '{site.name}'; "
                            f"checkpoint keys must be stable across runs",
                        )


class ObsInertnessRule(ProjectRule):
    """R012 — library code must not branch on tracer/metric state."""

    rule_id = "R012"
    description = (
        "library code must not branch on ambient tracer/metric state "
        "(obs instrumentation stays semantically inert)"
    )
    severity = SEVERITY_ERROR

    def check_project(
        self, model: ProjectModel, purity: PurityReport
    ) -> Iterable[Finding]:
        for module_name in sorted(model.modules):
            if self._exempt(module_name):
                continue
            mod = model.modules[module_name]
            for fn in mod.functions:
                tracer_locals = {
                    local
                    for local, call in fn.assigned_calls
                    if classify_external(call) == FACT_TRACER
                }
                for site in fn.branch_calls:
                    if classify_external(site.name) == FACT_TRACER:
                        yield self.project_finding(
                            mod.path,
                            site,
                            f"branch on ambient tracer state "
                            f"('{site.name}') in library code; obs must stay "
                            f"semantically inert",
                        )
                for site in fn.branch_names:
                    if site.name in tracer_locals:
                        yield self.project_finding(
                            mod.path,
                            site,
                            f"branch on '{site.name}' (assigned from the "
                            f"ambient tracer) in library code; obs must stay "
                            f"semantically inert",
                        )

    @staticmethod
    def _exempt(module_name: str) -> bool:
        segments = module_name.split(".")
        return "obs" in segments or segments[-1] in OBS_EXEMPT_BASENAMES


class ImportCycleRule(ProjectRule):
    """R013 — the project-internal import graph must be acyclic."""

    rule_id = "R013"
    description = (
        "project modules must not import each other cyclically at module "
        "top level (break cycles with function-level imports)"
    )
    severity = SEVERITY_ERROR

    def check_project(
        self, model: ProjectModel, purity: PurityReport
    ) -> Iterable[Finding]:
        for cycle in _strongly_connected(model.module_graph):
            anchor = cycle[0]
            successor = next(
                (m for m in model.module_graph[anchor] if m in cycle), anchor
            )
            site = model.import_site(anchor, successor)
            loop = " -> ".join(cycle + (cycle[0],))
            yield self.project_finding(
                model.modules[anchor].path,
                site,
                f"import cycle: {loop}",
            )


class DeadExportRule(ProjectRule):
    """R014 — flag ``__all__`` exports nothing in the repo references."""

    rule_id = "R014"
    description = (
        "public __all__ exports must be referenced somewhere in the project "
        "or its tests/examples/benchmarks/scripts"
    )
    severity = SEVERITY_WARNING

    def check_project(
        self, model: ProjectModel, purity: PurityReport
    ) -> Iterable[Finding]:
        exporters: dict[str, set[str]] = {}
        for module_name in sorted(model.modules):
            mod = model.modules[module_name]
            for name in mod.all_exports or ():
                exporters.setdefault(name, set()).add(module_name)
        for module_name in sorted(model.modules):
            mod = model.modules[module_name]
            if mod.all_exports is None:
                continue
            for name in mod.all_exports:
                if name in model.external_refs:
                    continue
                referenced = False
                for other_name in sorted(model.modules):
                    if other_name in exporters.get(name, set()):
                        continue
                    if name in model.modules[other_name].refs:
                        referenced = True
                        break
                if not referenced:
                    yield self.project_finding(
                        mod.path,
                        None,
                        f"'{name}' is exported in __all__ but never "
                        f"referenced by project code, tests, examples, "
                        f"benchmarks or scripts",
                    )


def _strongly_connected(graph: dict[str, tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Tarjan SCCs of size > 1 (plus self-loops), deterministically sorted."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[tuple[str, ...]] = []

    def visit(node: str) -> None:
        # Iterative Tarjan: (node, iterator-position) frames.
        frames: list[tuple[str, int]] = [(node, 0)]
        while frames:
            current, pos = frames.pop()
            if pos == 0:
                index[current] = lowlink[current] = counter[0]
                counter[0] += 1
                stack.append(current)
                on_stack.add(current)
            neighbors = graph.get(current, ())
            advanced = False
            for i in range(pos, len(neighbors)):
                nxt = neighbors[i]
                if nxt not in index:
                    frames.append((current, i + 1))
                    frames.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[current] = min(lowlink[current], index[nxt])
            if advanced:
                continue
            if lowlink[current] == index[current]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                is_self_loop = len(component) == 1 and current in graph.get(
                    current, ()
                )
                if len(component) > 1 or is_self_loop:
                    components.append(tuple(sorted(component)))
            if frames:
                parent = frames[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sorted(components)
