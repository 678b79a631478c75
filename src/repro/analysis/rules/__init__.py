"""Repo-specific analysis rules and their registry.

Two tiers: per-file rules R001–R008, R015, and R016 run through the
AST-walking engine, one file at a time; whole-program rules R009–R014 run
once over the assembled project model (see
:mod:`repro.analysis.rules.wholeprog`).
"""

from __future__ import annotations

from repro.analysis.rules.api import PublicApiContractRule
from repro.analysis.rules.asserts import BareAssertRule
from repro.analysis.rules.confinement import (
    NetIoRule,
    ProcessPrimitiveRule,
    StoreIoRule,
)
from repro.analysis.rules.defaults import MutableDefaultRule
from repro.analysis.rules.exceptions import BroadExceptRule
from repro.analysis.rules.imports import SANCTIONED_PACKAGES, ForbiddenImportRule
from repro.analysis.rules.iteration import RESULT_SUBPACKAGES, SetIterationRule
from repro.analysis.rules.randomness import SEEDABLE_CONSTRUCTORS, UnseededRandomnessRule
from repro.analysis.rules.wholeprog import (
    CheckpointKeyStabilityRule,
    DeadExportRule,
    DeterminismTaintRule,
    ImportCycleRule,
    ObsInertnessRule,
    ProjectRule,
    WorkerCellSafetyRule,
)

from repro.analysis.engine import Rule
from repro.errors import AnalysisError as _AnalysisError

#: Every rule class shipped with the analyzer, in rule-id order.
RULE_CLASSES: tuple[type[Rule], ...] = (
    ForbiddenImportRule,
    UnseededRandomnessRule,
    MutableDefaultRule,
    BareAssertRule,
    PublicApiContractRule,
    SetIterationRule,
    BroadExceptRule,
    ProcessPrimitiveRule,
    DeterminismTaintRule,
    WorkerCellSafetyRule,
    CheckpointKeyStabilityRule,
    ObsInertnessRule,
    ImportCycleRule,
    DeadExportRule,
    # R015/R016 sit after the whole-program block so the per-file R001–R008
    # prefix (pinned by tests/test_export_surface.py) stays untouched;
    # dispatch is by the ``whole_program`` flag, not position.
    StoreIoRule,
    NetIoRule,
)

RULE_IDS: tuple[str, ...] = tuple(cls.rule_id for cls in RULE_CLASSES)


def default_rules(only: tuple[str, ...] | None = None) -> tuple[Rule, ...]:
    """Instantiate the default rule set, optionally restricted to ``only`` ids."""
    if only is not None:
        unknown = sorted(set(only) - set(RULE_IDS))
        if unknown:
            raise _AnalysisError(f"unknown rule ids: {', '.join(unknown)}")
    rules = tuple(cls() for cls in RULE_CLASSES)
    if only is None:
        return rules
    wanted = set(only)
    return tuple(rule for rule in rules if rule.rule_id in wanted)


__all__ = [
    "Rule",
    "ProjectRule",
    "ForbiddenImportRule",
    "UnseededRandomnessRule",
    "MutableDefaultRule",
    "BareAssertRule",
    "BroadExceptRule",
    "ProcessPrimitiveRule",
    "PublicApiContractRule",
    "SetIterationRule",
    "DeterminismTaintRule",
    "WorkerCellSafetyRule",
    "CheckpointKeyStabilityRule",
    "ObsInertnessRule",
    "ImportCycleRule",
    "DeadExportRule",
    "StoreIoRule",
    "NetIoRule",
    "SANCTIONED_PACKAGES",
    "SEEDABLE_CONSTRUCTORS",
    "RESULT_SUBPACKAGES",
    "RULE_CLASSES",
    "RULE_IDS",
    "default_rules",
]
