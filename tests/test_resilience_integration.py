"""Integration tests: resilience machinery driving real experiment harnesses.

The two acceptance properties of the fault-tolerance work:

* a sweep crashed at an arbitrary cell (injected ``KeyboardInterrupt``)
  and resumed from its checkpoint renders a table **byte-identical** to an
  uninterrupted run;
* a permanently-failing cell degrades into a ``FAILED(...)`` row while
  every other cell completes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synth import load_compas
from repro.errors import DataError
from repro.experiments.robustness import run_seed_sweep
from repro.experiments.tradeoff import run_tradeoff
from repro.resilience import (
    BACKEND_INPROC,
    CellExecutor,
    Checkpoint,
    FaultPlan,
    PermanentFault,
    RetryPolicy,
    interrupt_on_call,
    seeded_transients,
)
from repro.resilience.chaos import faulted_sweep

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def compas_small():
    return load_compas(900, seed=11)


def robustness_table(dataset, executor=None, seeds=SEEDS):
    result = run_seed_sweep(dataset, "ProPublica", seeds=seeds, executor=executor)
    return result.table()


class TestCrashResume:
    def test_resumed_table_byte_identical(self, compas_small, tmp_path):
        baseline = robustness_table(compas_small)

        ck_path = tmp_path / "ck.json"
        crashed = CellExecutor(
            checkpoint=Checkpoint(ck_path, "r"), faults=interrupt_on_call(3)
        )
        with pytest.raises(KeyboardInterrupt):
            robustness_table(compas_small, executor=crashed)
        # the first two cells survived the crash on disk
        assert len(Checkpoint(ck_path, "r")) == 2

        resumed = CellExecutor(checkpoint=Checkpoint(ck_path, "r"))
        assert robustness_table(compas_small, executor=resumed) == baseline
        assert resumed.n_resumed == 2

    @settings(max_examples=5, deadline=None)
    @given(crash_at=st.integers(min_value=1, max_value=len(SEEDS)))
    def test_resume_equivalence_at_any_crash_point(self, crash_at, tmp_path_factory):
        """Property: wherever the crash lands, resume output is identical."""
        dataset = load_compas(400, seed=11)
        baseline = robustness_table(dataset)

        ck_path = tmp_path_factory.mktemp("resume") / "ck.json"
        crashed = CellExecutor(
            checkpoint=Checkpoint(ck_path, "r"), faults=interrupt_on_call(crash_at)
        )
        with pytest.raises(KeyboardInterrupt):
            robustness_table(dataset, executor=crashed)

        resumed = CellExecutor(checkpoint=Checkpoint(ck_path, "r"))
        assert robustness_table(dataset, executor=resumed) == baseline
        assert resumed.n_resumed == crash_at - 1

    def test_transient_faults_do_not_change_output(self, compas_small):
        baseline = robustness_table(compas_small)
        keys = [("robustness", str(s)) for s in SEEDS]
        executor = CellExecutor(
            policy=RetryPolicy(max_attempts=3),
            faults=seeded_transients(keys, seed=0, rate=1.0),
        )
        assert robustness_table(compas_small, executor=executor) == baseline


class TestGracefulDegradation:
    def test_failing_seed_becomes_marker_row(self, compas_small):
        faults = FaultPlan(
            cells={("robustness", "1"): PermanentFault(error=DataError)}
        )
        executor = CellExecutor(policy=RetryPolicy(max_attempts=2), faults=faults)
        result = run_seed_sweep(
            compas_small, "ProPublica", seeds=SEEDS, executor=executor
        )
        assert len(result.outcomes) == len(SEEDS) - 1
        assert len(result.failures) == 1
        assert result.failures[0].seed == 1
        assert result.failures[0].marker == "FAILED(DataError)"
        table = result.table()
        assert "FAILED(DataError)" in table
        assert "mean" in table  # aggregate row still rendered

    def test_failing_tradeoff_cell_keeps_grid_complete(self, compas_small):
        faults = FaultPlan(
            cells={("tradeoff", "original", "dt"): PermanentFault(error=DataError)}
        )
        executor = CellExecutor(policy=RetryPolicy(max_attempts=2), faults=faults)
        result = run_tradeoff(
            compas_small,
            "ProPublica",
            tau_c=0.1,
            models=("dt",),
            executor=executor,
        )
        rows = result.all_results()
        failed = [r for r in rows if not r.ok]
        assert len(failed) == 1
        assert failed[0].variant == "original" and failed[0].model == "dt"
        assert failed[0].status == "FAILED(DataError)"
        # every other cell of the grid completed
        assert all(r.ok for r in rows if r is not failed[0])
        assert "FAILED(DataError)" in result.table()
        assert executor.n_failed == 1


class TestSmokeGate:
    def test_smoke_passes(self):
        """Tier-1 gate for ``make experiments-smoke``: every cell fails once
        with a transient fault and the sweep still matches a clean run."""
        seeds = (0, 1)
        keys = [("robustness", str(seed)) for seed in seeds]
        faults = seeded_transients(keys, seed=0, rate=1.0, times=1)
        table = faulted_sweep(faults, BACKEND_INPROC, seeds)
        assert "Robustness" in table
