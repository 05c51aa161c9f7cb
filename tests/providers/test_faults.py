"""Unit tests for the fault-tolerance layer: seeded injection schedules,
retry policy classification/backoff, payload validation, partial results,
the pool-cancel race, and the processes -> threads fallback.

The integration-level sweep (fault kinds x executors, bit-identity against
a fault-free baseline) lives in ``tests/integration/test_chaos.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import (
    BackendError,
    CorruptedResultError,
    TransientFaultError,
    WorkerCrashError,
)
from repro.providers import (
    Aer,
    FaultInjector,
    FaultKind,
    FaultSpec,
    JobStatus,
    RetryPolicy,
)
from repro.providers.executor import validate_outcome
from repro.providers.result import ExperimentResult
from repro.providers.retry import (
    aggregate_fault_stats,
    resolve_retry_policy,
)

#: The CI chaos job sweeps this seed (three fixed values, blocking).
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

FAST_RETRY = RetryPolicy(base_delay=0.0)


def _ghz(num_qubits=3, name="ghz"):
    circuit = QuantumCircuit(num_qubits, num_qubits)
    circuit.h(0)
    for i in range(num_qubits - 1):
        circuit.cx(i, i + 1)
    for i in range(num_qubits):
        circuit.measure(i, i)
    circuit.name = name
    return circuit


def _batch(size=3):
    return [_ghz(name=f"exp-{i}") for i in range(size)]


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(BackendError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_probability_bounds(self):
        with pytest.raises(BackendError, match="probability"):
            FaultSpec(FaultKind.TRANSIENT, probability=1.5)

    def test_matches_filters(self):
        spec = FaultSpec(FaultKind.TRANSIENT, experiments=["a"],
                         attempts=(0, 2))
        assert spec.matches("a", 0)
        assert spec.matches("a", 2)
        assert not spec.matches("a", 1)
        assert not spec.matches("b", 0)

    def test_none_filters_match_everything(self):
        spec = FaultSpec(FaultKind.SLOW, experiments=None, attempts=None)
        assert spec.matches("anything", 17)


class TestFaultInjectorSchedule:
    def test_schedule_is_deterministic_per_seed(self):
        spec = FaultSpec(FaultKind.TRANSIENT, attempts=None,
                         probability=0.5)
        first = FaultInjector([spec], seed=CHAOS_SEED)
        second = FaultInjector([spec], seed=CHAOS_SEED)
        decisions = [
            first.fires(spec, f"exp-{i}", attempt)
            for i in range(20) for attempt in range(3)
        ]
        assert decisions == [
            second.fires(spec, f"exp-{i}", attempt)
            for i in range(20) for attempt in range(3)
        ]
        # A fractional probability actually splits the schedule.
        assert any(decisions) and not all(decisions)

    def test_different_seeds_differ(self):
        spec = FaultSpec(FaultKind.TRANSIENT, attempts=None,
                         probability=0.5)
        a = FaultInjector([spec], seed=CHAOS_SEED)
        b = FaultInjector([spec], seed=CHAOS_SEED + 1)
        keys = [(f"exp-{i}", attempt)
                for i in range(30) for attempt in range(3)]
        assert [a.fires(spec, *k) for k in keys] \
            != [b.fires(spec, *k) for k in keys]

    def test_transient_raises_and_logs(self):
        injector = FaultInjector([FaultSpec(FaultKind.TRANSIENT)], seed=1)
        log = []
        with pytest.raises(TransientFaultError):
            injector.before_attempt("exp-0", 0, log)
        assert log == ["transient@0"]
        injector.before_attempt("exp-0", 1, log)  # attempt 1: no fire
        assert log == ["transient@0"]

    def test_crash_in_process_raises_worker_crash(self):
        # In the main process (no multiprocessing parent) a crash fault
        # must raise, not kill the interpreter.
        injector = FaultInjector([FaultSpec(FaultKind.CRASH)], seed=1)
        with pytest.raises(WorkerCrashError):
            injector.before_attempt("exp-0", 0, [])

    def test_slow_sleeps(self):
        injector = FaultInjector(
            [FaultSpec(FaultKind.SLOW, latency=0.05)], seed=1
        )
        start = time.perf_counter()
        injector.before_attempt("exp-0", 0, [])
        assert time.perf_counter() - start >= 0.05

    def test_corrupt_mangles_counts(self):
        injector = FaultInjector([FaultSpec(FaultKind.CORRUPT)], seed=1)
        outcome = ExperimentResult("exp-0", 10, {"counts": {"00": 6,
                                                            "11": 4}})
        log = []
        injector.after_attempt("exp-0", 0, outcome, log)
        assert log == ["corrupt@0"]
        assert sum(outcome.data["counts"].values()) == 9
        with pytest.raises(CorruptedResultError):
            validate_outcome(outcome)

    def test_single_spec_accepted(self):
        injector = FaultInjector(FaultSpec(FaultKind.SLOW), seed=0)
        assert len(injector.specs) == 1


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(TransientFaultError("x"))
        assert policy.retryable(WorkerCrashError("x"))
        assert policy.retryable(CorruptedResultError("x"))
        assert policy.retryable(ConnectionError("x"))
        assert not policy.retryable(BackendError("x"))
        assert not policy.retryable(ValueError("x"))

    def test_backoff_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, backoff_factor=2.0,
                             max_delay=0.3, jitter=0.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(5) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.1)
        waits = [policy.backoff(0, seed=42) for _ in range(3)]
        assert waits[0] == waits[1] == waits[2]
        assert 0.09 <= waits[0] <= 0.11
        assert policy.backoff(0, seed=42) != policy.backoff(0, seed=43)

    def test_zero_base_delay_never_waits(self):
        assert RetryPolicy(base_delay=0.0).backoff(3, seed=1) == 0.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(BackendError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(BackendError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(BackendError):
            RetryPolicy(jitter=2.0)

    def test_resolution(self):
        assert resolve_retry_policy(None).max_attempts == 3
        assert resolve_retry_policy(False).max_attempts == 1
        assert resolve_retry_policy({"max_attempts": 5}).max_attempts == 5
        policy = RetryPolicy(max_attempts=2)
        assert resolve_retry_policy(policy) is policy
        with pytest.raises(BackendError):
            resolve_retry_policy("twice")


class TestValidateOutcome:
    def test_consistent_payload_passes(self):
        validate_outcome(ExperimentResult(
            "x", 4, {"counts": {"00": 4}, "memory": ["00"] * 4}
        ))

    def test_count_mismatch_raises(self):
        with pytest.raises(CorruptedResultError, match="sum to 3"):
            validate_outcome(ExperimentResult("x", 4, {"counts": {"0": 3}}))

    def test_memory_mismatch_raises(self):
        with pytest.raises(CorruptedResultError, match="memory"):
            validate_outcome(ExperimentResult(
                "x", 4, {"counts": {"0": 4}, "memory": ["0"] * 3}
            ))

    def test_stateless_payloads_skip(self):
        validate_outcome(ExperimentResult("x", 1, {"statevector": None}))


class TestRetryInExecutors:
    """A transient fault on one experiment retries only that experiment."""

    @pytest.mark.parametrize("kind", ["serial", "threads", "processes"])
    def test_retry_succeeds_and_ledger_accounts(self, kind):
        backend = Aer.get_backend("qasm_simulator")
        injector = FaultInjector(
            [FaultSpec(FaultKind.TRANSIENT, experiments=["exp-1"],
                       attempts=(0,))],
            seed=CHAOS_SEED,
        )
        job = backend.run(_batch(), shots=64, seed=5, executor=kind,
                          fault_injector=injector, retry_policy=FAST_RETRY)
        result = job.result()
        assert result.success and not result.partial
        stats = job.fault_stats
        assert stats["per_experiment"]["exp-1"]["attempts"] == 2
        assert stats["per_experiment"]["exp-0"]["attempts"] == 1
        assert stats["per_experiment"]["exp-2"]["attempts"] == 1
        assert stats["attempts"] == 4
        assert stats["retries"] == 1
        assert stats["faults_injected"] >= 1

    def test_exhausted_retries_fail_only_that_experiment(self):
        backend = Aer.get_backend("qasm_simulator")
        injector = FaultInjector(
            [FaultSpec(FaultKind.TRANSIENT, experiments=["exp-1"],
                       attempts=None)],
            seed=CHAOS_SEED,
        )
        job = backend.run(_batch(), shots=64, seed=5, executor="serial",
                          fault_injector=injector, retry_policy=FAST_RETRY)
        result = job.result()
        assert result.partial and not result.success
        assert [e.circuit_name for e in result.failed_experiments] \
            == ["exp-1"]
        assert sum(result.get_counts("exp-0").values()) == 64
        assert sum(result.get_counts("exp-2").values()) == 64
        stats = job.fault_stats
        assert stats["per_experiment"]["exp-1"]["attempts"] == 3
        assert stats["failed_experiments"] == ["exp-1"]

    def test_non_transient_errors_are_not_retried(self):
        backend = Aer.get_backend("qasm_simulator")
        bad = QuantumCircuit(2, name="bad")  # no clbits: engine rejects
        bad.h(0)
        job = backend.run([bad], shots=16, seed=1, executor="serial")
        result = job.result()
        assert not result.success
        assert job.fault_stats["per_experiment"]["bad"]["attempts"] == 1

    def test_backoff_waits_recorded(self):
        backend = Aer.get_backend("qasm_simulator")
        injector = FaultInjector(
            [FaultSpec(FaultKind.TRANSIENT, experiments=["exp-0"],
                       attempts=(0,))],
            seed=CHAOS_SEED,
        )
        policy = RetryPolicy(base_delay=0.01, jitter=0.1)
        job = backend.run(_batch(1), shots=16, seed=5, executor="serial",
                          fault_injector=injector, retry_policy=policy)
        job.result()
        stats = job.fault_stats
        assert stats["backoff_total_s"] > 0
        # Deterministic jitter: the wait equals the policy's prediction
        # for (derived seed, attempt 0).
        seed = job.result().results[0].seed
        # The ledger rounds to microseconds.
        assert stats["per_experiment"]["exp-0"]["backoff_s"] \
            == pytest.approx(policy.backoff(0, seed=seed), abs=1e-6)


class TestDegradation:
    def test_process_crash_degrades_to_threads_and_finishes(self):
        backend = Aer.get_backend("qasm_simulator")
        injector = FaultInjector(
            [FaultSpec(FaultKind.CRASH, experiments=["exp-1"],
                       attempts=(0,))],
            seed=CHAOS_SEED,
        )
        job = backend.run(_batch(), shots=64, seed=5, executor="processes",
                          fault_injector=injector, retry_policy=FAST_RETRY)
        result = job.result()
        assert result.success
        assert job.fault_stats["fallbacks"] == ["processes->threads"]


class TestPoolCancelRace:
    """Regression: cancel mid-experiment transitions CANCELLED exactly
    once and keeps every already-finished result."""

    def _slow_job(self):
        backend = Aer.get_backend("qasm_simulator")
        injector = FaultInjector(
            [FaultSpec(FaultKind.SLOW, attempts=None, latency=0.6)],
            seed=CHAOS_SEED,
        )
        return backend.run(_batch(), shots=16, seed=3, executor="threads",
                           max_workers=1, fault_injector=injector)

    def test_cancel_exactly_once_and_keeps_finished(self):
        job = self._slow_job()
        time.sleep(0.15)  # let exp-0 start (it sleeps 0.6s)
        assert job.cancel() is True
        assert job.cancel() is False  # exactly once
        assert job.status() == JobStatus.CANCELLED
        with pytest.raises(BackendError, match="cancelled"):
            job.result()
        partial = job.result(partial=True)
        assert partial.partial
        by_name = {e.circuit_name: e for e in partial.results}
        # exp-0 was mid-flight: it finishes and its result is kept.
        assert by_name["exp-0"].status == JobStatus.DONE
        assert sum(partial.get_counts("exp-0").values()) == 16
        assert by_name["exp-2"].status == JobStatus.CANCELLED
        # Still CANCELLED afterwards; the partial gather did not flip it.
        assert job.status() == JobStatus.CANCELLED

    def test_cancel_after_done_is_noop(self):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(_batch(1), shots=16, seed=3, executor="threads")
        job.result()
        assert job.cancel() is False
        assert job.status() == JobStatus.DONE


class TestTimeoutPartialResults:
    """Satellite: a deadline returns completed experiments instead of
    discarding them, on every executor."""

    def _slow_batch_job(self, executor):
        backend = Aer.get_backend("qasm_simulator")
        injector = FaultInjector(
            [FaultSpec(FaultKind.SLOW, experiments=["exp-1", "exp-2"],
                       attempts=None, latency=0.7)],
            seed=CHAOS_SEED,
        )
        kwargs = {"max_workers": 1} if executor != "serial" else {}
        return backend.run(_batch(), shots=32, seed=6, executor=executor,
                           fault_injector=injector, **kwargs)

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_partial_then_full_collect(self, executor):
        job = self._slow_batch_job(executor)
        partial = job.result(timeout=0.25, partial=True)
        assert len(partial.results) == 3
        assert partial.partial
        statuses = {e.status for e in partial.results}
        assert JobStatus.INCOMPLETE in statuses
        # Completed experiments are collectable from the partial result.
        for experiment in partial.completed_experiments:
            assert sum(experiment.data["counts"].values()) == 32
        # The job was not poisoned: a later full collect finishes.
        full = job.result()
        assert full.success and len(full.results) == 3

    def test_partial_timeout_still_raises_without_flag(self):
        from repro.exceptions import JobTimeoutError

        job = self._slow_batch_job("serial")
        with pytest.raises(JobTimeoutError):
            job.result(timeout=0.1)
        assert job.result().success


class TestFaultStatsLedger:
    def test_aggregate_counts_everything(self):
        outcomes = [
            ExperimentResult("a", 8, {"counts": {"0": 8}}, attempts=2,
                             backoff_total=0.05, faults=["transient@0"]),
            ExperimentResult("b", 8, {}, status="ERROR", error="boom",
                             attempts=3, faults=["transient@0",
                                                 "transient@1",
                                                 "transient@2"]),
        ]
        stats = aggregate_fault_stats(outcomes, ["processes->threads"])
        assert stats["experiments"] == 2
        assert stats["attempts"] == 5
        assert stats["retries"] == 3
        assert stats["faults_injected"] == 4
        assert stats["fallbacks"] == ["processes->threads"]
        assert stats["failed_experiments"] == ["b"]
        assert stats["per_experiment"]["a"]["backoff_s"] \
            == pytest.approx(0.05)

    def test_clean_job_ledger_is_quiet(self):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(_batch(), shots=16, seed=1, executor="serial")
        job.result()
        stats = job.fault_stats
        assert stats["retries"] == 0
        assert stats["faults_injected"] == 0
        assert stats["fallbacks"] == []
        assert stats["failed_experiments"] == []
        assert stats["attempts"] == 3
