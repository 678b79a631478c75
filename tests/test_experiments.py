"""Tests for the experiment harness (repro.experiments.*).

These run reduced-size versions of every paper artefact to check the
plumbing and the *direction* of each result; the full-size numbers live in
benchmarks/ and EXPERIMENTS.md.
"""

import json

import numpy as np
import pytest

from repro.data.synth import load_adult, load_compas
from repro.errors import DataError
from repro.experiments import (
    EVAL_HEADERS,
    BaselineRow,
    EvalResult,
    SeedOutcome,
    TimingPoint,
    evaluate_model,
    evaluate_remedy,
    identification_vs_attrs,
    identification_vs_size,
    remedy_vs_attrs,
    remedy_vs_size,
    run_baseline_comparison,
    run_tradeoff,
    run_validation,
    speedup_summary,
    sweep_T,
    sweep_tau_c,
    validation_summary,
    validation_table,
)
from repro.core import RemedyConfig
from repro.data.split import train_test_split
from repro.experiments.runner import result_codec


@pytest.fixture(scope="module")
def compas_exp():
    return load_compas(2500, seed=3)


@pytest.fixture(scope="module")
def adult_exp():
    return load_adult(6000, seed=5)


class TestRunner:
    def test_evaluate_model_fields(self, compas_exp):
        train, test = train_test_split(compas_exp, 0.3, seed=0)
        res = evaluate_model(train, test, "dt", variant="original")
        assert 0.5 < res.accuracy <= 1.0
        assert res.fairness_index_fpr >= 0
        assert res.fairness_index_fnr >= 0
        assert res.train_rows == train.n_rows
        assert res.fit_seconds > 0

    def test_evaluate_remedy_changes_training_data(self, compas_exp):
        train, test = train_test_split(compas_exp, 0.3, seed=0)
        res = evaluate_remedy(
            train, test, "dt", RemedyConfig(tau_c=0.1, technique="undersampling")
        )
        assert res.train_rows < train.n_rows
        assert res.variant.startswith("remedy[")

    def test_row_shape(self, compas_exp):
        train, test = train_test_split(compas_exp, 0.3, seed=0)
        res = evaluate_model(train, test, "lg")
        assert len(res.row()) == len(EVAL_HEADERS) == 8
        assert res.row()[-1] == "ok"

    def test_failed_placeholder_row(self):
        res = EvalResult.failed("original", "dt", "FAILED(DataError)", "boom")
        assert not res.ok
        assert res.status == "FAILED(DataError)"
        assert res.train_rows == 0
        assert all(
            x != x for x in (res.accuracy, res.fairness_index_fpr, res.fit_seconds)
        )

    @pytest.mark.parametrize(
        "value",
        [
            EvalResult("original", "dt", 0.75, 0.5, 0.25, 560, 0.01),
            TimingPoint(8, "naive", 0.2, 32),
            SeedOutcome(3, 0.4, 0.1, 0.7, 0.69),
            BaselineRow("remedy", 0.0035, 0.825, 0.002, status="ok"),
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_result_codec_round_trips(self, value):
        encode, decode = result_codec(type(value))
        payload = json.loads(json.dumps(encode(value)))
        assert decode(payload) == value
        with pytest.raises(DataError, match="malformed"):
            decode([payload])
        with pytest.raises(DataError, match="malformed"):
            decode({**payload, "bogus": 1})


class TestFig3Validation:
    def test_most_unfair_subgroups_explained(self, compas_exp):
        results = run_validation(compas_exp, models=("dt",), seed=0)
        for r in results:
            if r.n_unfair:
                assert r.explained_fraction >= 0.8

    def test_tables_render(self, compas_exp):
        results = run_validation(compas_exp, models=("dt",), seed=0)
        table = validation_table(results, schema=compas_exp.schema)
        summary = validation_summary(results)
        assert "Fig. 3" in table and "Fig. 3" in summary

    def test_both_gammas_present(self, compas_exp):
        results = run_validation(compas_exp, models=("dt",), seed=0)
        assert {r.gamma for r in results} == {"fpr", "fnr"}


class TestFig456Tradeoff:
    @pytest.fixture(scope="class")
    def tradeoff(self, compas_exp):
        return run_tradeoff(compas_exp, "compas", tau_c=0.1, models=("dt",), seed=0)

    def test_lattice_improves_fairness_index(self, tradeoff):
        original = tradeoff.by_variant("original")[0]
        lattice = tradeoff.by_variant("scope:lattice")[0]
        assert lattice.fairness_index_fpr < original.fairness_index_fpr
        assert lattice.fairness_index_fnr < original.fairness_index_fnr

    def test_accuracy_cost_bounded(self, tradeoff):
        """The paper: accuracy decreases by less than 0.1."""
        original = tradeoff.by_variant("original")[0]
        lattice = tradeoff.by_variant("scope:lattice")[0]
        assert original.accuracy - lattice.accuracy < 0.1

    def test_all_variants_present(self, tradeoff):
        variants = {r.variant for r in tradeoff.all_results()}
        assert {
            "original",
            "scope:lattice",
            "scope:leaf",
            "scope:top",
            "technique:oversampling",
            "technique:undersampling",
            "technique:massaging",
        } <= variants

    def test_table_renders(self, tradeoff):
        assert "trade-off" in tradeoff.table()


class TestFig7Fig8Params:
    def test_tau_sweep_monotone_updates(self, compas_exp):
        sweep = sweep_tau_c(
            compas_exp, "compas", tau_grid=(0.1, 0.9), model="dt", seed=0
        )
        low = next(p for p in sweep.points if p.value == 0.1)
        high = next(p for p in sweep.points if p.value == 0.9)
        # Smaller tau_c remedies more -> at least as fair (usually fairer).
        assert low.result.fairness_index_fpr <= high.result.fairness_index_fpr + 0.05
        assert "original" in sweep.table("Fig. 7")

    def test_T_sweep_covers_both_values(self, compas_exp):
        sweep = sweep_T(compas_exp, "compas", tau_c=0.1, model="dt", seed=0)
        values = {p.value for p in sweep.points}
        assert values == {1.0, float(len(compas_exp.protected))}
        for p in sweep.points:
            assert (
                p.result.fairness_index_fpr
                <= sweep.baseline.fairness_index_fpr + 0.05
            )


class TestTable3Baselines:
    @pytest.fixture(scope="class")
    def table(self, adult_exp):
        return run_baseline_comparison(adult_exp, gerryfair_iters=5, seed=0)

    def test_all_approaches_present(self, table):
        names = {r.approach for r in table.rows}
        assert names == {
            "original",
            "remedy",
            "coverage",
            "fairbalance",
            "fair-smote",
            "reweighting",
            "gerryfair",
        }

    def test_remedy_improves_violation(self, table):
        rows = {r.approach: r for r in table.rows}
        assert rows["remedy"].fairness_violation < rows["original"].fairness_violation

    def test_coverage_does_not_improve_violation(self, table):
        """Paper: 'fairness improvements in all baselines except Coverage'."""
        rows = {r.approach: r for r in table.rows}
        assert (
            rows["coverage"].fairness_violation
            >= rows["original"].fairness_violation - 0.003
        )

    def test_reweighting_strong(self, table):
        rows = {r.approach: r for r in table.rows}
        assert (
            rows["reweighting"].fairness_violation
            <= rows["original"].fairness_violation
        )

    def test_fairsmote_slowest_preprocessing(self, table):
        rows = {r.approach: r for r in table.rows}
        others = [
            rows[n].seconds for n in ("coverage", "fairbalance", "reweighting")
        ]
        assert rows["fair-smote"].seconds > max(others)

    def test_renders(self, table):
        assert "Table III" in table.table()


class TestFig9Scalability:
    def test_optimized_faster_at_scale(self):
        res = identification_vs_attrs(n_rows=4000, attr_grid=(4, 6), tau_c=0.5)
        speedups = speedup_summary(res)
        assert speedups[6] > 1.0

    def test_runtime_grows_with_attrs(self):
        res = identification_vs_attrs(
            n_rows=4000, attr_grid=(3, 6), tau_c=0.5, methods=("optimized",)
        )
        t = {p.x: p.seconds for p in res.points}
        assert t[6] > t[3]

    def test_runtime_grows_with_size(self):
        res = identification_vs_size(
            size_grid=(2000, 8000), n_attrs=6, methods=("naive",)
        )
        t = {p.x: p.seconds for p in res.points}
        assert t[8000] > t[2000]

    def test_remedy_sweeps_run(self):
        attrs_res = remedy_vs_attrs(
            n_rows=3000, attr_grid=(3,), techniques=("undersampling",)
        )
        size_res = remedy_vs_size(
            size_grid=(3000,), n_attrs=4, techniques=("massaging",)
        )
        assert attrs_res.points and size_res.points
        assert all(p.seconds >= 0 for p in attrs_res.points + size_res.points)
        # x is the grid's int, so tables print "3", not "3.0000"
        xs = [p.x for p in attrs_res.points + size_res.points]
        assert xs == [3, 3000] and all(type(x) is int for x in xs)

    def test_table_renders(self):
        res = identification_vs_attrs(n_rows=2000, attr_grid=(3,))
        assert "Fig. 9a" in res.table("#attrs")


class TestRobustness:
    def test_seed_sweep_fields(self, compas_exp):
        from repro.core.pipeline import RemedyConfig
        from repro.experiments.robustness import run_seed_sweep

        result = run_seed_sweep(
            compas_exp,
            "compas",
            config=RemedyConfig(tau_c=0.1, technique="undersampling"),
            model="dt",
            seeds=(0, 1),
        )
        assert len(result.outcomes) == 2
        assert 0.0 <= result.improvement_rate <= 1.0
        assert "Robustness" in result.table()
        for o in result.outcomes:
            assert o.fi_improvement == o.fi_before - o.fi_after
            assert o.accuracy_cost == o.accuracy_before - o.accuracy_after

    def test_seed_sweep_mostly_improves(self, compas_exp):
        from repro.core.pipeline import RemedyConfig
        from repro.experiments.robustness import run_seed_sweep

        result = run_seed_sweep(
            compas_exp,
            "compas",
            config=RemedyConfig(tau_c=0.1, technique="undersampling"),
            model="dt",
            seeds=(0, 1, 2),
        )
        assert result.improvement_rate >= 2 / 3


class TestPostprocessRow:
    def test_optional_postprocess_row(self, adult_exp):
        table = run_baseline_comparison(
            adult_exp, gerryfair_iters=2, seed=0, include_postprocess=True
        )
        names = {r.approach for r in table.rows}
        assert "postprocess" in names
        rows = {r.approach: r for r in table.rows}
        # Post-processing must not be catastrophically worse than original.
        assert rows["postprocess"].accuracy > 0.6
