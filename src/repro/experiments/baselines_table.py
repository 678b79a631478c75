"""Table III — comparison against subgroup-unfairness mitigation baselines.

Setup per §V-B4: Adult dataset, protected attributes ``{race, gender}``,
logistic regression as the downstream learner for every pre-processing
method (matching GerryFair's linear learner), evaluation under the
*fairness violation* metric (max divergence × group size), plus test
accuracy and the method's wall-clock execution time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.audit.violation import fairness_violation
from repro.errors import ExperimentError
from repro.resilience import CellExecutor, CellSpec, register_cell
from repro.baselines.coverage import coverage_remedy
from repro.baselines.fairsmote import fair_smote
from repro.baselines.gerryfair import GerryFairClassifier
from repro.baselines.postprocess import GroupThresholdPostprocessor
from repro.baselines.reweighting import fairbalance_weights, reweighting_weights
from repro.core.pipeline import RemedyConfig, RemedyPipeline
from repro.data.dataset import Dataset
from repro.data.split import train_test_split
from repro.experiments.reporting import format_table
from repro.experiments.runner import result_codec
from repro.ml.metrics import FPR, accuracy
from repro.ml.models import make_model


@dataclass(frozen=True)
class BaselineRow:
    """One Table III row (``status`` marks cells that failed after retries)."""

    approach: str
    fairness_violation: float
    accuracy: float
    seconds: float  # method time (preprocessing or in-processing train)
    status: str = "ok"


@dataclass(frozen=True)
class BaselineTable:
    """All Table III rows, renderable in the paper's listing order."""

    rows: tuple[BaselineRow, ...]

    def table(self) -> str:
        headers = ("approach", "fairness violation", "accuracy", "time (s)", "status")
        return format_table(
            headers,
            [
                (r.approach, r.fairness_violation, r.accuracy, r.seconds, r.status)
                for r in rows_sorted(self.rows)
            ],
            title="Table III — baseline comparison (X = {race, gender})",
        )


def rows_sorted(rows: Sequence[BaselineRow]) -> list[BaselineRow]:
    """Original first, then the paper's listing order."""
    order = {
        "original": 0,
        "remedy": 1,
        "coverage": 2,
        "fairbalance": 3,
        "fair-smote": 4,
        "reweighting": 5,
        "gerryfair": 6,
        "postprocess": 7,
    }
    return sorted(rows, key=lambda r: order.get(r.approach, 99))


#: Table III approach ids, in the paper's listing order.
APPROACHES = (
    "original",
    "remedy",
    "coverage",
    "fairbalance",
    "fair-smote",
    "reweighting",
    "gerryfair",
    "postprocess",
)


@register_cell("table3.approach")
def approach_row(
    train: Dataset,
    test: Dataset,
    approach: str,
    protected: Sequence[str],
    model: str,
    tau_c: float,
    T: float,
    k: int,
    gamma: str,
    technique: str,
    seed: int,
    gerryfair_iters: int,
) -> BaselineRow:
    """One Table III cell: run ``approach`` end to end and build its row.

    A module-level dispatcher (rather than one closure per approach) so
    the process backend can address any approach by ``(cell id, params)``.
    """

    def audit(pred) -> float:
        return fairness_violation(
            test, pred, gamma=gamma, attrs=protected, min_size=k
        )

    def measure(preprocess: Callable[[], tuple]) -> BaselineRow:
        """Time ``preprocess`` -> (train', weights, model); fit, predict, audit."""
        start = time.perf_counter()
        fit_data, weights, clf = preprocess()
        elapsed = time.perf_counter() - start
        if clf is None:
            clf = make_model(model, seed=seed).fit(fit_data, sample_weight=weights)
        pred = clf.predict(test)
        return BaselineRow(approach, audit(pred), accuracy(test.y, pred), elapsed)

    if approach == "original":
        clf = make_model(model, seed=seed).fit(train)
        pred = clf.predict(test)
        return BaselineRow("original", audit(pred), accuracy(test.y, pred), 0.0)
    if approach == "remedy":
        # Remedy (ours): lattice scope with the configured sampler.
        return measure(
            lambda: (
                RemedyPipeline(
                    RemedyConfig(tau_c=tau_c, T=T, k=k, technique=technique, seed=seed)
                ).transform(train),
                None,
                None,
            )
        )
    if approach == "coverage":
        return measure(
            lambda: (coverage_remedy(train, lambda_threshold=k, seed=seed), None, None)
        )
    if approach == "fairbalance":
        return measure(lambda: (train, fairbalance_weights(train), None))
    if approach == "fair-smote":
        # Fair-SMOTE (synthetic oversampling; the slow kNN one).
        return measure(lambda: (fair_smote(train, seed=seed), None, None))
    if approach == "reweighting":
        return measure(lambda: (train, reweighting_weights(train), None))
    if approach == "gerryfair":
        # GerryFair (in-processing): the timed step is the training itself.
        return measure(
            lambda: (
                None,
                None,
                GerryFairClassifier(max_iters=gerryfair_iters, statistic=gamma).fit(
                    train
                ),
            )
        )
    if approach == "postprocess":
        clf = make_model(model, seed=seed).fit(train)
        start = time.perf_counter()
        post = GroupThresholdPostprocessor(statistic=gamma, min_group_size=k)
        post.fit(train, clf.predict_proba(train))
        elapsed = time.perf_counter() - start
        pred = post.predict(test, clf.predict_proba(test))
        return BaselineRow("postprocess", audit(pred), accuracy(test.y, pred), elapsed)
    raise ExperimentError(
        f"unknown Table III approach {approach!r}; expected one of {APPROACHES}"
    )


def run_baseline_comparison(
    dataset: Dataset,
    protected: Sequence[str] = ("race", "gender"),
    model: str = "lg",
    tau_c: float = 0.1,
    T: float = 1.0,
    k: int = 30,
    gamma: str = FPR,
    technique: str = "undersampling",
    test_fraction: float = 0.3,
    seed: int = 0,
    gerryfair_iters: int = 15,
    include_postprocess: bool = False,
    executor: CellExecutor | None = None,
) -> BaselineTable:
    """Run every approach of Table III and collect its row.

    ``technique`` selects the Remedy sampler.  The default here is
    *undersampling* rather than the preferential sampling used in the
    trade-off figures: with the linear learner of this comparison,
    borderline-targeted sampling shifts the decision boundary past parity
    on our synthetic substrate (see EXPERIMENTS.md), while the uniform
    samplers reproduce the paper's reported direction.

    Each approach runs as one cell of ``executor`` (key
    ``("table3", <approach>)``); an approach that fails after its retry
    budget contributes a ``FAILED(...)`` row instead of aborting the table.
    """
    executor = executor if executor is not None else CellExecutor()
    dataset = dataset.with_protected(protected)
    train, test = train_test_split(dataset, test_fraction, seed=seed)

    # Post-processing (per-group thresholds) — the third mitigation family
    # the paper cites but does not compare; off by default to keep the
    # table identical to the paper's row set.
    approaches = [a for a in APPROACHES if a != "postprocess" or include_postprocess]
    specs = [
        CellSpec(
            key=("table3", approach),
            fn_id="table3.approach",
            params={
                "train": train,
                "test": test,
                "approach": approach,
                "protected": tuple(protected),
                "model": model,
                "tau_c": tau_c,
                "T": T,
                "k": k,
                "gamma": gamma,
                "technique": technique,
                "seed": seed,
                "gerryfair_iters": gerryfair_iters,
            },
        )
        for approach in approaches
    ]
    cells = executor.run_specs(specs, *result_codec(BaselineRow))
    rows: list[BaselineRow] = []
    nan = float("nan")
    for approach, cell in zip(approaches, cells):
        if cell.ok:
            rows.append(cell.value)  # type: ignore[arg-type]
        else:
            rows.append(BaselineRow(approach, nan, nan, nan, status=cell.marker))
    return BaselineTable(tuple(rows))
