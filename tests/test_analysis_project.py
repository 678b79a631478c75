"""Project model, symbol resolution, purity fixpoint, and the
determinism property (byte-identical output across orderings)."""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    ModuleFacts,
    ProjectModel,
    classify_external,
    default_rules,
    extract_module_facts,
    module_name_for,
)
from repro.analysis.project import FUNCTION, MODULE_SCOPE
from repro.analysis.purity import (
    FACT_CLOCK,
    FACT_GLOBAL,
    FACT_RNG,
    FACT_TRACER,
    PurityReport,
)

TAINT_SRC = (
    Path(__file__).resolve().parent / "fixtures" / "analysis" / "project"
    / "taint" / "src"
)


def load_facts(root=TAINT_SRC):
    out = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        module = module_name_for(path, [root / "miniproj"])
        out.append(
            extract_module_facts(source, ast.parse(source), path.as_posix(), module)
        )
    return out


def build_model():
    return ProjectModel.build(load_facts())


class TestModuleNaming:
    def test_package_layout_maps_to_dotted_names(self):
        root = TAINT_SRC / "miniproj"
        assert module_name_for(root / "core" / "engine.py", [root]) == (
            "miniproj.core.engine"
        )
        assert module_name_for(root / "core" / "__init__.py", [root]) == (
            "miniproj.core"
        )
        assert module_name_for(root / "__init__.py", [root]) == "miniproj"

    def test_outside_root_falls_back_to_stem(self):
        assert module_name_for(Path("/elsewhere/thing.py"), [TAINT_SRC]) == "thing"


class TestExtraction:
    def test_register_cell_and_key_exprs_are_detected(self):
        facts = {f.module: f for f in load_facts()}
        cells = facts["miniproj.cells"]
        by_name = cells.function_map()
        assert by_name["good_cell"].cell_ids == ("fix.good",)
        assert by_name["mutating_cell"].global_writes
        # Two run_cell calls -> two key expressions, one with a call inside.
        assert len(cells.key_exprs) == 2
        key_calls = {c.name for k in cells.key_exprs for c in k.calls}
        assert key_calls == {"time.time"}

    def test_module_scope_excludes_function_bodies(self):
        facts = {f.module: f for f in load_facts()}
        lib = facts["miniproj.lib"]
        module_fn = lib.function_map()[MODULE_SCOPE]
        assert module_fn.calls == ()
        assert module_fn.branch_calls == ()

    def test_facts_round_trip_through_json_dicts(self):
        for facts in load_facts():
            assert ModuleFacts.from_dict(facts.to_dict()) == facts


class TestSymbolResolution:
    def test_reexports_are_chased_through_package_inits(self):
        model = build_model()
        kind, target = model.resolve_symbol("miniproj.solve")
        assert (kind, target) == (FUNCTION, "miniproj.core.engine:solve")
        kind, target = model.resolve_symbol("miniproj.core.solve_clean")
        assert (kind, target) == (FUNCTION, "miniproj.core.engine:solve_clean")

    def test_non_project_names_are_external(self):
        model = build_model()
        assert model.resolve_symbol("numpy.random.rand")[0] == "external"

    def test_call_graph_links_internal_calls(self):
        model = build_model()
        solve = model.functions["miniproj.core.engine:solve"]
        internal = {target for target, _ in solve.internal_calls}
        assert internal == {
            "miniproj.core.helper:jitter",
            "miniproj.core.helper:pure_mix",
        }

    def test_module_graph_has_import_edges(self):
        model = build_model()
        assert "miniproj.core.engine" in model.module_graph["miniproj.core"]
        assert "miniproj.pool" in model.module_graph["miniproj.cells"]


class TestPurity:
    def test_direct_fact_and_transitive_chain(self):
        model = build_model()
        purity = PurityReport(model)
        direct = purity.facts_of("miniproj.core.helper:jitter")[FACT_RNG]
        assert direct.chain == ()
        assert direct.detail == "random.random"
        inherited = purity.facts_of("miniproj.core.engine:solve")[FACT_RNG]
        assert inherited.chain == ("miniproj.core.helper:jitter",)
        assert inherited.origin == "miniproj.core.helper:jitter"
        assert "random.random" in inherited.describe()

    def test_clean_function_carries_no_facts(self):
        model = build_model()
        purity = PurityReport(model)
        assert purity.facts_of("miniproj.core.engine:solve_clean") == {}

    def test_global_write_and_tracer_facts(self):
        model = build_model()
        purity = PurityReport(model)
        assert purity.has_fact("miniproj.cells:mutating_cell", FACT_GLOBAL)
        assert purity.has_fact("miniproj.lib:record", FACT_TRACER)

    def test_classify_external_table(self):
        assert classify_external("random.random") == FACT_RNG
        assert classify_external("numpy.random.rand") == FACT_RNG
        assert classify_external("numpy.random.default_rng") is None
        assert classify_external("time.perf_counter") == FACT_CLOCK
        assert classify_external("sorted") is None


def _render(facts_list):
    """Deterministic full-pipeline render used by the ordering property."""
    model = ProjectModel.build(facts_list)
    purity = PurityReport(model)
    findings = []
    for rule in default_rules(("R009", "R010", "R011", "R012", "R013", "R014")):
        findings.extend(rule.check_project(model, purity))
    findings.sort()
    return "\n".join(f.format() for f in findings)


REFERENCE_FACTS = load_facts()
REFERENCE_RENDER = _render(REFERENCE_FACTS)


@settings(max_examples=25, deadline=None)
@given(st.permutations(REFERENCE_FACTS))
def test_output_is_byte_identical_across_file_orderings(shuffled):
    assert _render(shuffled) == REFERENCE_RENDER


def test_output_is_byte_identical_across_repeated_runs():
    assert _render(load_facts()) == REFERENCE_RENDER
