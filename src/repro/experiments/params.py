"""Figs. 7 & 8 — parameter sensitivity of the remedy (§V-B3).

* Fig. 7 varies the imbalance threshold ``tau_c`` from 0.1 to 0.9 with
  ``T = 1`` (decision tree) and reports fairness index (FPR) plus accuracy.
* Fig. 8 compares ``T = 1`` against ``T = |X|`` and reports the fairness
  index under FPR and FNR plus accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.core.pipeline import RemedyConfig
from repro.core.samplers import PREFERENTIAL
from repro.data.dataset import Dataset
from repro.data.split import train_test_split
from repro.experiments.reporting import format_cell, format_table
from repro.experiments.runner import EvalResult, eval_cell, run_eval_cells
from repro.resilience import CellExecutor

DEFAULT_TAU_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a parameter sweep."""

    parameter: str
    value: float
    result: EvalResult


@dataclass(frozen=True)
class SweepResult:
    """A full parameter sweep: the unremedied baseline plus every grid point."""

    dataset_name: str
    model: str
    baseline: EvalResult
    points: tuple[SweepPoint, ...]

    def table(self, title: str) -> str:
        """The sweep as a table; a failed point shows ``-`` in every metric
        and is listed below the table with its status (``TIMEOUT`` or
        ``FAILED(<error class>)``), so a clean sweep prints the table alone."""
        headers = ("value", "FI(FPR)", "FI(FNR)", "accuracy")
        labelled = [("original", self.baseline)]
        labelled.extend((format_cell(p.value), p.result) for p in self.points)
        rows = [
            (label, r.fairness_index_fpr, r.fairness_index_fnr, r.accuracy)
            for label, r in labelled
        ]
        failed = [f"  {label}: {r.status}" for label, r in labelled if not r.ok]
        text = format_table(headers, rows, title=title)
        return "\n".join([text, "failed points:", *failed]) if failed else text


def _sweep(
    figure: str,
    parameter: str,
    dataset: Dataset,
    dataset_name: str,
    model: str,
    grid: Sequence[tuple[float, RemedyConfig]],
    test_fraction: float,
    seed: int,
    executor: CellExecutor | None,
) -> SweepResult:
    """Evaluate the unremedied baseline and one remedy per ``(value, config)``.

    Each evaluation runs as one cell of ``executor`` (a single-attempt
    default when omitted), keyed ``(figure, variant, model)``; a failed
    cell renders as ``-`` in the table.
    """
    executor = executor if executor is not None else CellExecutor()
    train, test = train_test_split(dataset, test_fraction, seed=seed)
    cell = partial(eval_cell, figure, train, test, model)
    cells = [cell("original", seed=seed)]
    cells.extend(cell(f"{parameter}={value}", config=config) for value, config in grid)
    baseline, *results = run_eval_cells(executor, cells)
    points = tuple(
        SweepPoint(parameter, float(value), result)
        for (value, _), result in zip(grid, results)
    )
    return SweepResult(dataset_name, model, baseline, points)


def sweep_tau_c(
    dataset: Dataset,
    dataset_name: str,
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
    T: float = 1.0,
    k: int = 30,
    model: str = "dt",
    technique: str = PREFERENTIAL,
    test_fraction: float = 0.3,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> SweepResult:
    """Fig. 7: fairness index and accuracy as ``tau_c`` varies."""
    grid = [
        (tau_c, RemedyConfig(tau_c=tau_c, T=T, k=k, technique=technique, seed=seed))
        for tau_c in tau_grid
    ]
    return _sweep(
        "fig7", "tau_c", dataset, dataset_name, model, grid, test_fraction, seed,
        executor,
    )


def sweep_T(
    dataset: Dataset,
    dataset_name: str,
    tau_c: float,
    k: int = 30,
    model: str = "dt",
    technique: str = PREFERENTIAL,
    test_fraction: float = 0.3,
    seed: int = 0,
    T_values: Sequence[float] | None = None,
    executor: CellExecutor | None = None,
) -> SweepResult:
    """Fig. 8: ``T = 1`` vs ``T = |X|`` (or a custom grid)."""
    if T_values is None:
        T_values = (1.0, float(len(dataset.protected)))
    grid = [
        (T, RemedyConfig(tau_c=tau_c, T=T, k=k, technique=technique, seed=seed))
        for T in T_values
    ]
    return _sweep(
        "fig8", "T", dataset, dataset_name, model, grid, test_fraction, seed,
        executor,
    )
