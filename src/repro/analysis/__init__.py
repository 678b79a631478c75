"""Static analysis enforcing the repo's determinism, dependency and API
contracts (see docs/static_analysis.md).

Two tiers.  Per file: an AST-walking engine
(:mod:`repro.analysis.engine`) dispatches each node to pluggable rules
R001–R008, R015 and R016 (forbidden imports, global-RNG usage, mutable
defaults, bare asserts, public-API drift, set iteration, swallowed
handlers, and three confinements: process primitives to the resilience
package, shard/manifest I/O to the sharded store, network I/O to the
serving front).  Whole program: every file's extracted facts
assemble into a :class:`~repro.analysis.project.ProjectModel` (module
graph, symbol table, approximate call graph) over which a purity
fixpoint (:mod:`repro.analysis.purity`) drives rules R009–R014
(determinism taint, worker-cell safety, checkpoint-key stability, obs
inertness, import cycles, dead exports).  An incremental sha256 cache
(:mod:`repro.analysis.cache`) makes warm runs re-parse only changed
files.  Findings ratchet via a JSON baseline
(:mod:`repro.analysis.baseline`) and are reported by
``python -m repro.analysis`` / ``repro analyze``
(:mod:`repro.analysis.runner`).
"""

from repro.analysis.baseline import (
    BaselineDiff,
    BaselineEntry,
    diff_against_baseline,
    load_baseline,
    load_baseline_entries,
    prune_baseline,
    write_baseline,
)
from repro.analysis.cache import AnalysisCache, cache_salt, file_sha256
from repro.analysis.driver import (
    AnalysisOutcome,
    AnalysisStats,
    analyze_project,
)
from repro.analysis.project import (
    ModuleFacts,
    ProjectModel,
    extract_module_facts,
    module_name_for,
)
from repro.analysis.purity import PurityReport, classify_external
from repro.analysis.engine import (
    Analyzer,
    FileContext,
    Finding,
    PARSE_ERROR_ID,
    ProjectContext,
    Rule,
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    analyze_paths,
    iter_python_files,
    module_all,
    suppressed_rules_by_line,
)
from repro.analysis.rules import (
    BareAssertRule,
    CheckpointKeyStabilityRule,
    DeadExportRule,
    DeterminismTaintRule,
    ForbiddenImportRule,
    ImportCycleRule,
    MutableDefaultRule,
    ObsInertnessRule,
    ProjectRule,
    PublicApiContractRule,
    RULE_CLASSES,
    RULE_IDS,
    SANCTIONED_PACKAGES,
    SetIterationRule,
    UnseededRandomnessRule,
    WorkerCellSafetyRule,
    default_rules,
)

__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "ProjectContext",
    "Rule",
    "ProjectRule",
    "analyze_paths",
    "analyze_project",
    "AnalysisOutcome",
    "AnalysisStats",
    "iter_python_files",
    "module_all",
    "suppressed_rules_by_line",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "PARSE_ERROR_ID",
    "BaselineDiff",
    "BaselineEntry",
    "load_baseline",
    "load_baseline_entries",
    "prune_baseline",
    "write_baseline",
    "diff_against_baseline",
    "AnalysisCache",
    "cache_salt",
    "file_sha256",
    "ModuleFacts",
    "ProjectModel",
    "PurityReport",
    "classify_external",
    "extract_module_facts",
    "module_name_for",
    "BareAssertRule",
    "ForbiddenImportRule",
    "MutableDefaultRule",
    "PublicApiContractRule",
    "SetIterationRule",
    "UnseededRandomnessRule",
    "DeterminismTaintRule",
    "WorkerCellSafetyRule",
    "CheckpointKeyStabilityRule",
    "ObsInertnessRule",
    "ImportCycleRule",
    "DeadExportRule",
    "RULE_CLASSES",
    "RULE_IDS",
    "SANCTIONED_PACKAGES",
    "default_rules",
]
