"""Figs. 4/5/6 — the fairness–accuracy trade-off on the three datasets.

Two sweeps per dataset, exactly as §V-B2 structures them:

* *identification scopes* — Original vs. Lattice vs. Leaf vs. Top, all with
  preferential sampling (panels a–c of each figure);
* *pre-processing techniques* — PS vs. US vs. oversampling vs. massaging,
  all with the Lattice scope (panel d).

Each cell reports the fairness index under FPR and FNR plus test accuracy
for every downstream model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.core.ibs import SCOPE_LATTICE, SCOPE_LEAF, SCOPE_TOP
from repro.core.pipeline import RemedyConfig
from repro.core.samplers import (
    MASSAGING,
    OVERSAMPLING,
    PREFERENTIAL,
    TECHNIQUES,
    UNDERSAMPLING,
)
from repro.data.dataset import Dataset
from repro.data.split import train_test_split
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    DEFAULT_MODELS,
    EVAL_HEADERS,
    EvalResult,
    eval_cell,
    run_eval_cells,
)
from repro.resilience import CellExecutor

SCOPE_VARIANTS = (SCOPE_LATTICE, SCOPE_LEAF, SCOPE_TOP)


@dataclass(frozen=True)
class TradeoffResult:
    """All evaluations of one dataset's trade-off figure."""

    dataset_name: str
    tau_c: float
    T: float
    scope_results: tuple[EvalResult, ...]
    technique_results: tuple[EvalResult, ...]

    def all_results(self) -> tuple[EvalResult, ...]:
        return self.scope_results + self.technique_results

    def by_variant(self, variant: str) -> list[EvalResult]:
        return [r for r in self.all_results() if r.variant == variant]

    def table(self) -> str:
        rows = [r.row() for r in self.all_results()]
        return format_table(
            EVAL_HEADERS,
            rows,
            title=(
                f"Figs. 4-6 — fairness/accuracy trade-off "
                f"({self.dataset_name}, tau_c={self.tau_c}, T={self.T})"
            ),
        )


def run_tradeoff(
    dataset: Dataset,
    dataset_name: str,
    tau_c: float,
    T: float = 1.0,
    k: int = 30,
    models: Sequence[str] = DEFAULT_MODELS,
    techniques: Sequence[str] = TECHNIQUES,
    scopes: Sequence[str] = SCOPE_VARIANTS,
    test_fraction: float = 0.3,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> TradeoffResult:
    """Run the full trade-off grid for one dataset.

    Paper parameters: tau_c=0.1 for ProPublica / Law School, 0.5 for Adult,
    T=1 throughout (§V-B2).

    Each (variant, model) evaluation runs as one cell of ``executor`` (a
    single-attempt default when omitted): failed cells become
    ``FAILED(...)`` placeholder rows instead of aborting the grid, and a
    checkpointing executor makes the sweep resumable.
    """
    executor = executor if executor is not None else CellExecutor()
    train, test = train_test_split(dataset, test_fraction, seed=seed)
    cell = partial(eval_cell, "tradeoff", train, test)

    scope_cells = []
    for model_name in models:
        scope_cells.append(cell(model_name, "original", seed=seed))
        for scope in scopes:
            config = RemedyConfig(
                tau_c=tau_c, T=T, k=k, technique=PREFERENTIAL, scope=scope, seed=seed
            )
            scope_cells.append(cell(model_name, f"scope:{scope}", config=config))
    scope_results = run_eval_cells(executor, scope_cells)

    technique_cells = []
    for model_name in models:
        for technique in techniques:
            if technique == PREFERENTIAL:
                continue  # already covered by scope:lattice above
            config = RemedyConfig(
                tau_c=tau_c,
                T=T,
                k=k,
                technique=technique,
                scope=SCOPE_LATTICE,
                seed=seed,
            )
            technique_cells.append(
                cell(model_name, f"technique:{technique}", config=config)
            )
    technique_results = run_eval_cells(executor, technique_cells)

    return TradeoffResult(
        dataset_name=dataset_name,
        tau_c=tau_c,
        T=T,
        scope_results=tuple(scope_results),
        technique_results=tuple(technique_results),
    )


__all__ = [
    "TradeoffResult",
    "run_tradeoff",
    "SCOPE_VARIANTS",
    "PREFERENTIAL",
    "UNDERSAMPLING",
    "OVERSAMPLING",
    "MASSAGING",
]
