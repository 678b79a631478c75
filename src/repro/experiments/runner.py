"""Shared experiment plumbing: train/evaluate one configuration.

Each evaluation fits a downstream classifier on (possibly remedied or
reweighted) training data, predicts the untouched test set — the paper
never remedies the test side — and reports accuracy plus the fairness
index under FPR and FNR.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.audit.fairness_index import fairness_index
from repro.core.pipeline import RemedyConfig, RemedyPipeline
from repro.data.dataset import Dataset
from repro.errors import DataError
from repro.ml.metrics import FNR, FPR, accuracy
from repro.ml.models import make_model
from repro.resilience import CellExecutor, CellSpec, register_cell

DEFAULT_MODELS = ("dt", "rf", "lg", "nn")

R = TypeVar("R")


def result_codec(cls: type[R]) -> tuple[Callable[[R], dict], Callable[[object], R]]:
    """``(encode, decode)`` checkpoint codec of a flat result dataclass.

    ``decode`` raises :class:`~repro.errors.DataError` on a payload that is
    not a dict of ``cls``'s fields.
    """

    def decode(payload: object) -> R:
        if not isinstance(payload, dict):
            raise DataError(f"malformed {cls.__name__} payload: {payload!r}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise DataError(f"malformed {cls.__name__} payload: {payload!r}") from exc

    return asdict, decode


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one (variant, model) evaluation.

    ``status`` is ``"ok"`` for a completed evaluation; a cell that failed
    after its retry budget carries the executor's marker
    (``FAILED(<error class>)`` or ``TIMEOUT``) with NaN metrics, so partial
    sweeps stay renderable instead of aborting.
    """

    variant: str
    model: str
    accuracy: float
    fairness_index_fpr: float
    fairness_index_fnr: float
    train_rows: int
    fit_seconds: float
    status: str = "ok"
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the evaluation completed and the metrics are real."""
        return self.status == "ok"

    @classmethod
    def failed(
        cls, variant: str, model: str, marker: str, error: str | None = None
    ) -> "EvalResult":
        """A placeholder row for a cell that failed after all retries."""
        nan = float("nan")
        return cls(
            variant=variant,
            model=model,
            accuracy=nan,
            fairness_index_fpr=nan,
            fairness_index_fnr=nan,
            train_rows=0,
            fit_seconds=nan,
            status=marker,
            error=error,
        )

    def row(self) -> tuple[object, ...]:
        """Row for the reporting tables."""
        return (
            self.variant,
            self.model,
            self.fairness_index_fpr,
            self.fairness_index_fnr,
            self.accuracy,
            self.train_rows,
            self.fit_seconds,
            self.status,
        )


EVAL_HEADERS = (
    "variant",
    "model",
    "FI(FPR)",
    "FI(FNR)",
    "accuracy",
    "train_rows",
    "fit_s",
    "status",
)


def eval_cell(
    sweep: str,
    train: Dataset,
    test: Dataset,
    model_name: str,
    variant: str,
    seed: int = 0,
    config: RemedyConfig | None = None,
) -> tuple[str, str, CellSpec]:
    """One ``(variant, model, spec)`` cell for :func:`run_eval_cells`.

    Keyed ``(sweep, variant, model_name)``.  Without ``config`` the cell
    evaluates the model, seeded with ``seed``, on ``train`` as is
    (``eval.model``); with one it remedies ``train`` under ``config``
    first and takes the seed from there (``eval.remedy``).
    """
    key = (sweep, variant, model_name)
    params = {
        "train": train, "test": test, "model_name": model_name, "variant": variant
    }
    if config is None:
        spec = CellSpec(key, "eval.model", {**params, "seed": seed})
    else:
        spec = CellSpec(key, "eval.remedy", {**params, "config": config})
    return variant, model_name, spec


def run_eval_cells(
    executor: CellExecutor,
    cells: Sequence[tuple[str, str, CellSpec]],
) -> list[EvalResult]:
    """Run ``(variant, model, spec)`` evaluation cells fault-tolerantly.

    The specs address registered cell functions (``"eval.model"``,
    ``"eval.remedy"``, ...) so the sweep runs on either executor backend.
    Completed cells contribute their :class:`EvalResult`; failed ones
    degrade into :meth:`EvalResult.failed` placeholder rows carrying the
    executor's marker, so callers always get one row per requested cell.
    """
    outcomes = executor.run_specs(
        [spec for _, _, spec in cells], *result_codec(EvalResult)
    )
    results: list[EvalResult] = []
    for (variant, model, _), outcome in zip(cells, outcomes):
        if outcome.ok:
            results.append(outcome.value)  # type: ignore[arg-type]
        else:
            results.append(
                EvalResult.failed(
                    variant, model, outcome.marker, outcome.error_message
                )
            )
    return results


@register_cell("eval.model")
def evaluate_model(
    train: Dataset,
    test: Dataset,
    model_name: str,
    variant: str = "original",
    seed: int = 0,
    sample_weight: np.ndarray | None = None,
    audit_attrs: Sequence[str] | None = None,
) -> EvalResult:
    """Fit ``model_name`` on ``train`` and audit its test predictions."""
    start = time.perf_counter()
    model = make_model(model_name, seed=seed).fit(train, sample_weight=sample_weight)
    fit_seconds = time.perf_counter() - start
    pred = model.predict(test)
    return EvalResult(
        variant=variant,
        model=model_name,
        accuracy=accuracy(test.y, pred),
        fairness_index_fpr=fairness_index(test, pred, FPR, attrs=audit_attrs),
        fairness_index_fnr=fairness_index(test, pred, FNR, attrs=audit_attrs),
        train_rows=train.n_rows,
        fit_seconds=fit_seconds,
    )


@register_cell("eval.remedy")
def evaluate_remedy(
    train: Dataset,
    test: Dataset,
    model_name: str,
    config: RemedyConfig,
    variant: str | None = None,
    audit_attrs: Sequence[str] | None = None,
) -> EvalResult:
    """Remedy the training data under ``config``, then evaluate."""
    pipeline = RemedyPipeline(config)
    remedied = pipeline.transform(train)
    label = variant or f"remedy[{config.scope},{config.technique}]"
    return evaluate_model(
        remedied,
        test,
        model_name,
        variant=label,
        seed=config.seed,
        audit_attrs=audit_attrs,
    )
