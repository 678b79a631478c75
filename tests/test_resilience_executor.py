"""Unit tests for the fault-tolerant cell executor (repro.resilience.executor)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    CellTimeout,
    DataError,
    InternalError,
    ReproError,
    ResilienceError,
)
from repro.resilience import (
    CellExecutor,
    CellOutcome,
    FaultPlan,
    PermanentFault,
    RetryPolicy,
    SlowFault,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    TransientFault,
    call_with_deadline,
)


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.schedule() == (0.0, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ResilienceError):
            RetryPolicy(**kwargs)

    def test_backoff_is_geometric(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.5, backoff_factor=2.0)
        assert policy.schedule() == (0.5, 1.0, 2.0)

    def test_jittered_schedule_is_deterministic(self):
        a = RetryPolicy(max_attempts=5, base_delay=1.0, jitter=0.5, seed=42)
        b = RetryPolicy(max_attempts=5, base_delay=1.0, jitter=0.5, seed=42)
        assert a.schedule() == b.schedule()
        # jitter stays within +/- jitter of the base delay
        for base, actual in zip((1.0, 2.0, 4.0, 8.0), a.schedule()):
            assert base * 0.5 <= actual <= base * 1.5

    def test_different_seeds_differ(self):
        a = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.9, seed=0)
        b = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.9, seed=1)
        assert a.schedule() != b.schedule()

    def test_retryability_matrix(self):
        policy = RetryPolicy()
        assert policy.is_retryable(DataError("x"))
        assert policy.is_retryable(ReproError("x"))
        assert not policy.is_retryable(InternalError("x"))
        assert not policy.is_retryable(ValueError("x"))
        assert not policy.is_retryable(CellTimeout("x"))
        assert RetryPolicy(retry_timeouts=True).is_retryable(CellTimeout("x"))


class TestDeadline:
    def test_no_deadline_passthrough(self):
        assert call_with_deadline(lambda: 42, None) == 42

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ResilienceError):
            call_with_deadline(lambda: 1, 0.0)

    def test_preemptive_timeout_on_main_thread(self):
        start = time.perf_counter()
        with pytest.raises(CellTimeout):
            call_with_deadline(lambda: time.sleep(5.0), 0.05)
        # the sleep was interrupted, not waited out
        assert time.perf_counter() - start < 2.0

    def test_fast_cell_unaffected(self):
        assert call_with_deadline(lambda: "ok", 5.0) == "ok"

    def test_alarm_restored_after_use(self):
        import signal

        call_with_deadline(lambda: None, 5.0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_nested_deadline_restores_outer_timer(self):
        import signal

        remaining: list[float] = []

        def outer_body():
            assert call_with_deadline(lambda: "inner", 0.5) == "inner"
            # the outer 5s alarm must be re-armed, not cleared or replaced
            remaining.append(signal.getitimer(signal.ITIMER_REAL)[0])
            return "outer"

        assert call_with_deadline(outer_body, 5.0) == "outer"
        assert 0.0 < remaining[0] <= 5.0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_outer_deadline_still_fires_after_inner_completes(self):
        def outer_body():
            call_with_deadline(lambda: None, 5.0)
            time.sleep(10.0)

        start = time.perf_counter()
        with pytest.raises(CellTimeout):
            call_with_deadline(outer_body, 0.2)
        assert time.perf_counter() - start < 2.0

    def test_outer_deadline_expired_during_inner_fires_promptly(self):
        # The inner call outlives the outer budget; on restore the expired
        # outer alarm must be re-armed at epsilon, not dropped.
        def outer_body():
            call_with_deadline(lambda: time.sleep(0.3), 5.0)
            time.sleep(10.0)

        start = time.perf_counter()
        with pytest.raises(CellTimeout):
            call_with_deadline(outer_body, 0.1)
        assert time.perf_counter() - start < 2.0

    def test_posthoc_timeout_off_main_thread(self):
        results: list[object] = []

        def work():
            try:
                call_with_deadline(lambda: time.sleep(0.05), 0.01)
                results.append("no timeout")
            except CellTimeout as exc:
                results.append(exc)

        t = threading.Thread(target=work)
        t.start()
        t.join()
        assert len(results) == 1
        assert isinstance(results[0], CellTimeout)


class TestCellExecutor:
    def test_success_first_attempt(self):
        executor = CellExecutor()
        outcome = executor.run_cell(("a", "b"), lambda: 7)
        assert outcome.ok and outcome.value == 7
        assert outcome.attempts == 1
        assert outcome.marker == "ok"
        assert executor.n_failed == 0

    def test_transient_repro_error_is_retried(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DataError("transient")
            return "done"

        executor = CellExecutor(policy=RetryPolicy(max_attempts=3))
        outcome = executor.run_cell(("x",), flaky)
        assert outcome.ok and outcome.value == "done"
        assert outcome.attempts == 3

    def test_exhausted_retries_degrade(self):
        executor = CellExecutor(policy=RetryPolicy(max_attempts=2))

        def always_fails():
            raise DataError("permanent")

        outcome = executor.run_cell(("x",), always_fails)
        assert not outcome.ok
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 2
        assert outcome.error_type == "DataError"
        assert outcome.marker == "FAILED(DataError)"

    def test_internal_error_never_retried(self):
        calls = []

        def buggy():
            calls.append(1)
            raise InternalError("bug")

        executor = CellExecutor(policy=RetryPolicy(max_attempts=5))
        outcome = executor.run_cell(("x",), buggy)
        assert not outcome.ok
        assert len(calls) == 1

    def test_untyped_exception_recorded_not_raised(self):
        executor = CellExecutor(policy=RetryPolicy(max_attempts=5))
        outcome = executor.run_cell(("x",), lambda: 1 / 0)
        assert not outcome.ok
        assert outcome.error_type == "ZeroDivisionError"
        assert outcome.attempts == 1  # never retried

    def test_keyboard_interrupt_propagates(self):
        executor = CellExecutor()

        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            executor.run_cell(("x",), interrupted)

    def test_timeout_becomes_record(self):
        executor = CellExecutor(deadline=0.05)
        outcome = executor.run_cell(("slow",), lambda: time.sleep(5.0))
        assert outcome.status == STATUS_TIMEOUT
        assert outcome.marker == "TIMEOUT"

    def test_backoff_sleeps_through_injected_sleep(self):
        slept: list[float] = []
        executor = CellExecutor(
            policy=RetryPolicy(max_attempts=3, base_delay=0.5, backoff_factor=2.0),
            sleep=slept.append,
        )

        def always_fails():
            raise DataError("x")

        executor.run_cell(("x",), always_fails)
        assert slept == [0.5, 1.0]

    def test_outcomes_accumulate_in_order(self):
        executor = CellExecutor()
        executor.run_cell(("a",), lambda: 1)
        executor.run_cell(("b",), lambda: 1 / 0)
        executor.run_cell(("c",), lambda: 3)
        assert [o.key for o in executor.outcomes] == [("a",), ("b",), ("c",)]
        assert executor.n_failed == 1
        assert executor.failures[0].key == ("b",)

    def test_keys_normalised_to_strings(self):
        executor = CellExecutor()
        outcome = executor.run_cell(("seed", 3), lambda: None)
        assert outcome.key == ("seed", "3")


class TestFaultIntegration:
    def test_transient_fault_forces_retry(self):
        faults = FaultPlan(cells={("x",): TransientFault(times=1)})
        executor = CellExecutor(policy=RetryPolicy(max_attempts=3), faults=faults)
        outcome = executor.run_cell(("x",), lambda: "v")
        assert outcome.ok and outcome.attempts == 2

    def test_permanent_fault_degrades(self):
        faults = FaultPlan(cells={("x",): PermanentFault()})
        executor = CellExecutor(policy=RetryPolicy(max_attempts=2), faults=faults)
        outcome = executor.run_cell(("x",), lambda: "v")
        assert not outcome.ok
        assert outcome.marker == "FAILED(InjectedFault)"

    def test_slow_fault_hits_deadline(self):
        faults = FaultPlan(cells={("x",): SlowFault(5.0)})
        executor = CellExecutor(deadline=0.05, faults=faults)
        outcome = executor.run_cell(("x",), lambda: "v")
        assert outcome.status == STATUS_TIMEOUT

    def test_unfaulted_cells_unaffected(self):
        faults = FaultPlan(cells={("other",): PermanentFault()})
        executor = CellExecutor(faults=faults)
        assert executor.run_cell(("x",), lambda: "v").ok


def test_cell_outcome_statuses_are_distinct():
    assert len({STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT}) == 3
    ok = CellOutcome(key=("k",), status=STATUS_OK, value=1)
    assert ok.ok and ok.marker == "ok"
