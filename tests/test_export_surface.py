"""Invariants of the public export surface.

Every assertion here is real coverage, but the file doubles as the
R014 (dead public exports) witness for convenience re-exports whose
canonical definition lives elsewhere: constants and rule classes that
external consumers are expected to import from the package root.
"""

from __future__ import annotations

from repro.analysis import (
    BareAssertRule,
    ForbiddenImportRule,
    MutableDefaultRule,
    PublicApiContractRule,
    RULE_CLASSES,
    RULE_IDS,
    SEVERITIES,
    SetIterationRule,
    UnseededRandomnessRule,
)
from repro.analysis.rules import (
    BroadExceptRule,
    NetIoRule,
    ProcessPrimitiveRule,
    StoreIoRule,
)
from repro.data.synth import (
    ADULT_PROTECTED,
    ADULT_SCALABILITY_PROTECTED,
    COMPAS_PROTECTED,
    LAWSCHOOL_PROTECTED,
    load_adult,
    load_compas,
    load_lawschool,
)
from repro.experiments import format_table, print_table
from repro.experiments.tradeoff import (
    SCOPE_LATTICE,
    SCOPE_LEAF,
    SCOPE_TOP,
    SCOPE_VARIANTS,
)
from repro.resilience import STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, STATUSES


class TestRuleRegistry:
    def test_per_file_rules_are_registered_in_id_order(self):
        per_file = [
            ForbiddenImportRule,
            UnseededRandomnessRule,
            MutableDefaultRule,
            BareAssertRule,
            PublicApiContractRule,
            SetIterationRule,
            BroadExceptRule,
            ProcessPrimitiveRule,
        ]
        assert list(RULE_CLASSES[: len(per_file)]) == per_file
        assert list(RULE_IDS) == sorted(RULE_IDS)

    def test_r015_r016_are_appended_after_the_pinned_prefix(self):
        # StoreIoRule / NetIoRule are per-file but registered last so the
        # positional prefix pin above survives; dispatch goes by the
        # whole_program flag.
        assert RULE_CLASSES[-2] is StoreIoRule
        assert RULE_CLASSES[-1] is NetIoRule
        assert not getattr(StoreIoRule, "whole_program", False)
        assert not getattr(NetIoRule, "whole_program", False)
        assert StoreIoRule.package == ("data", "store")
        assert NetIoRule.package == ("serve",)

    def test_every_rule_uses_a_known_severity(self):
        assert SEVERITIES == ("error", "warning")
        assert all(cls.severity in SEVERITIES for cls in RULE_CLASSES)
        assert all(cls.description for cls in RULE_CLASSES)


class TestDatasetProtectedAliases:
    def test_aliases_match_the_loaded_datasets(self):
        assert load_adult(n_rows=40, seed=0).protected == ADULT_PROTECTED
        assert load_compas(n_rows=40, seed=0).protected == COMPAS_PROTECTED
        assert load_lawschool(n_rows=40, seed=0).protected == LAWSCHOOL_PROTECTED

    def test_scalability_attrs_extend_the_adult_defaults(self):
        assert set(ADULT_PROTECTED) < set(ADULT_SCALABILITY_PROTECTED)


class TestExperimentConstants:
    def test_scope_variants_cover_the_three_scopes(self):
        assert SCOPE_VARIANTS == (SCOPE_LATTICE, SCOPE_LEAF, SCOPE_TOP)

    def test_print_table_writes_the_formatted_table(self, capsys):
        headers = ("a", "b")
        rows = [(1, 2)]
        print_table(headers, rows)
        assert capsys.readouterr().out == format_table(headers, rows) + "\n"


class TestResilienceStatuses:
    def test_statuses_enumerate_every_terminal_state(self):
        assert STATUSES == (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT)
