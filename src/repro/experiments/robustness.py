"""Multi-seed robustness of the remedy's fairness improvement.

The paper reports single-run numbers.  This extension repeats the headline
experiment — remedy the training split, retrain, compare fairness index and
accuracy against the unmitigated model — across train/test splits and
sampler seeds, reporting the mean, standard deviation, and the fraction of
seeds in which the remedy improved fairness.  A reproduction should show
the improvement is a property of the method, not of one lucky split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.audit.fairness_index import fairness_index
from repro.core.pipeline import RemedyConfig, RemedyPipeline
from repro.data.dataset import Dataset
from repro.data.split import train_test_split
from repro.experiments.reporting import format_table
from repro.experiments.runner import result_codec
from repro.ml.metrics import FPR, accuracy
from repro.ml.models import make_model
from repro.resilience import CellExecutor, CellSpec, register_cell


@dataclass(frozen=True)
class SeedOutcome:
    """One seed's before/after measurements."""

    seed: int
    fi_before: float
    fi_after: float
    accuracy_before: float
    accuracy_after: float

    @property
    def fi_improvement(self) -> float:
        return self.fi_before - self.fi_after

    @property
    def accuracy_cost(self) -> float:
        return self.accuracy_before - self.accuracy_after


@dataclass(frozen=True)
class SeedFailure:
    """A seed whose cell failed after all retries (marker + message)."""

    seed: int
    marker: str
    message: str | None = None


@dataclass(frozen=True)
class RobustnessResult:
    """Seed-sweep outcome: per-seed remedy effects on one dataset/model.

    ``outcomes`` holds the seeds that completed; ``failures`` the seeds
    that did not (with their ``FAILED(...)``/``TIMEOUT`` markers).  The
    aggregate statistics are computed over the completed seeds only.
    """

    dataset_name: str
    model: str
    gamma: str
    outcomes: tuple[SeedOutcome, ...]
    failures: tuple[SeedFailure, ...] = ()

    @property
    def improvement_rate(self) -> float:
        """Fraction of seeds where the fairness index strictly improved."""
        if not self.outcomes:
            return 0.0
        return float(
            np.mean([o.fi_improvement > 0 for o in self.outcomes])
        )

    @property
    def mean_improvement(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([o.fi_improvement for o in self.outcomes]))

    @property
    def std_improvement(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.std([o.fi_improvement for o in self.outcomes]))

    @property
    def mean_accuracy_cost(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([o.accuracy_cost for o in self.outcomes]))

    def table(self) -> str:
        nan = float("nan")
        rows: list[tuple[object, ...]] = [
            (o.seed, o.fi_before, o.fi_after, o.accuracy_before,
             o.accuracy_after, "ok")
            for o in self.outcomes
        ]
        rows.extend(
            (f.seed, nan, nan, nan, nan, f.marker) for f in self.failures
        )
        if self.outcomes:
            rows.append(
                (
                    "mean",
                    float(np.mean([o.fi_before for o in self.outcomes])),
                    float(np.mean([o.fi_after for o in self.outcomes])),
                    float(np.mean([o.accuracy_before for o in self.outcomes])),
                    float(np.mean([o.accuracy_after for o in self.outcomes])),
                    "",
                )
            )
        return format_table(
            ("seed", "FI before", "FI after", "acc before", "acc after", "status"),
            rows,
            title=(
                f"Robustness — {self.dataset_name}, {self.model}, "
                f"gamma={self.gamma}: improvement in "
                f"{self.improvement_rate:.0%} of seeds "
                f"({self.mean_improvement:.3f} ± {self.std_improvement:.3f})"
            ),
        )


@register_cell("robustness.seed")
def seed_cell(
    dataset: Dataset,
    config: RemedyConfig,
    model: str,
    gamma: str,
    seed: int,
    test_fraction: float,
) -> SeedOutcome:
    """One robustness cell: remedy-vs-original under a single seed.

    Module-level and registered so both backends can run it; every
    measurement is deterministic given the parameters.
    """
    train, test = train_test_split(dataset, test_fraction, seed=seed)
    baseline = make_model(model, seed=seed).fit(train)
    base_pred = baseline.predict(test)

    seeded = RemedyConfig(
        tau_c=config.tau_c,
        T=config.T,
        k=config.k,
        technique=config.technique,
        scope=config.scope,
        method=config.method,
        seed=seed,
    )
    remedied = RemedyPipeline(seeded).transform(train)
    fair = make_model(model, seed=seed).fit(remedied)
    fair_pred = fair.predict(test)

    return SeedOutcome(
        seed=seed,
        fi_before=fairness_index(test, base_pred, gamma),
        fi_after=fairness_index(test, fair_pred, gamma),
        accuracy_before=accuracy(test.y, base_pred),
        accuracy_after=accuracy(test.y, fair_pred),
    )


def run_seed_sweep(
    dataset: Dataset,
    dataset_name: str,
    config: RemedyConfig | None = None,
    model: str = "dt",
    gamma: str = FPR,
    seeds: Sequence[int] = tuple(range(5)),
    test_fraction: float = 0.3,
    executor: CellExecutor | None = None,
) -> RobustnessResult:
    """Repeat remedy-vs-original across split/sampler seeds.

    Each seed runs as one cell of ``executor`` (key
    ``("robustness", str(seed))``): every measurement in a
    :class:`SeedOutcome` is deterministic given the seed, so a sweep
    interrupted at any cell and resumed from its checkpoint renders a
    table byte-identical to an uninterrupted run.
    """
    executor = executor if executor is not None else CellExecutor()
    base_config = config or RemedyConfig()
    specs = [
        CellSpec(
            key=("robustness", str(seed)),
            fn_id="robustness.seed",
            params={
                "dataset": dataset,
                "config": base_config,
                "model": model,
                "gamma": gamma,
                "seed": int(seed),
                "test_fraction": test_fraction,
            },
        )
        for seed in seeds
    ]
    cells = executor.run_specs(specs, *result_codec(SeedOutcome))
    outcomes: list[SeedOutcome] = []
    failures: list[SeedFailure] = []
    for seed, cell in zip(seeds, cells):
        if cell.ok:
            outcomes.append(cell.value)  # type: ignore[arg-type]
        else:
            failures.append(SeedFailure(seed, cell.marker, cell.error_message))
    return RobustnessResult(
        dataset_name, model, gamma, tuple(outcomes), tuple(failures)
    )
