"""Hardening suite: admission control, deadlines, breakers, quarantine.

Runs under the CHAOS_SEED sweep in CI.  Everything here is
deterministic for a fixed seed: fault schedules are seeded, the breaker
probe jitter is seed-derived, deadlines run on a manually advanced fake
clock, and admission rejections carry a deterministic retry hint.
"""

from __future__ import annotations

import os

import pytest

from repro.circuit import Parameter, QuantumCircuit
from repro.exceptions import (
    BackendError,
    DeadlineExpiredError,
    JobQuarantinedError,
    QueueFullError,
)
from repro.providers import Aer, FaultInjector, FaultSpec, RetryPolicy
from repro.runtime import BreakerState, CircuitBreaker, RuntimeService
from repro.telemetry.metrics import get_metrics_registry

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

FAST_RETRY = RetryPolicy(base_delay=0.0)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _bell(name="bell"):
    circuit = QuantumCircuit(2, 2, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


def _poison_injector():
    """Every attempt faults: the poison-job generator."""
    return FaultInjector(
        [FaultSpec("transient", probability=1.0)], seed=CHAOS_SEED
    )


def _reference(shots=500, seed=11):
    return Aer.get_backend("qasm_simulator").run(
        _bell(), shots=shots, seed=seed,
    ).result().get_counts()


class TestAdmissionControl:
    def test_global_queue_depth_limit_rejects_with_retry_hint(
        self, tmp_path
    ):
        with RuntimeService(tmp_path, autostart=False,
                            max_queued_jobs=2) as service:
            service.submit(_bell(), shots=10)
            service.submit(_bell(), shots=10)
            with pytest.raises(QueueFullError) as info:
                service.submit(_bell(), shots=10)
        assert info.value.retry_after > 0
        # The hint is a pure function of queue state: resubmitting
        # against the same state yields the same hint.
        assert info.value.retry_after == round(info.value.retry_after, 3)

    def test_per_tenant_limit_isolates_tenants(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False,
                            max_queued_per_tenant=1) as service:
            service.submit(_bell(), shots=10, tenant="alice")
            with pytest.raises(QueueFullError):
                service.submit(_bell(), shots=10, tenant="alice")
            # Bob's queue is empty: his submission is admitted.
            service.submit(_bell(), shots=10, tenant="bob")

    def test_queued_shots_limit(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False,
                            max_queued_shots=1000) as service:
            service.submit(_bell(), shots=600)
            with pytest.raises(QueueFullError) as info:
                service.submit(_bell(), shots=600)
            assert "shots" in str(info.value)
            # A smaller job still fits under the ceiling.
            service.submit(_bell(), shots=300)

    def test_wait_true_blocks_until_capacity(self, tmp_path):
        with RuntimeService(tmp_path, max_workers=1,
                            max_queued_jobs=1) as service:
            first = service.submit(_bell(), shots=200, seed=1)
            # The queue is full until the worker drains it; wait=True
            # parks the submission instead of raising.
            second = service.submit(_bell(), shots=200, seed=2,
                                    wait=True, wait_timeout=30)
            assert first.result(timeout=30).success
            assert second.result(timeout=30).success

    def test_wait_timeout_gives_up(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False,
                            max_queued_jobs=1) as service:
            service.submit(_bell(), shots=10)
            with pytest.raises(QueueFullError):
                service.submit(_bell(), shots=10, wait=True,
                               wait_timeout=0.05)

    def test_rejection_does_not_touch_the_store(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False,
                            max_queued_jobs=1) as service:
            service.submit(_bell(), shots=10)
            with pytest.raises(QueueFullError):
                service.submit(_bell(), shots=10)
            assert len(service.jobs()) == 1


class TestDeadlines:
    def test_deadline_expires_in_queue_without_dispatch(self, tmp_path):
        clock = FakeClock()
        with RuntimeService(tmp_path, autostart=False,
                            clock=clock) as service:
            job = service.submit(_bell(), shots=100, deadline=5.0)
            clock.advance(6.0)
            service.start()
            with pytest.raises(DeadlineExpiredError):
                job.result(timeout=30)
        assert job.status() == "EXPIRED"
        # No provider job was ever created: the job expired at dequeue.
        assert job.provider_job is None

    def test_expired_state_survives_restart(self, tmp_path):
        clock = FakeClock()
        with RuntimeService(tmp_path, autostart=False,
                            clock=clock) as service:
            job = service.submit(_bell(), shots=100, deadline=5.0)
            clock.advance(6.0)
            service.start()
            with pytest.raises(DeadlineExpiredError):
                job.result(timeout=30)
        with RuntimeService(tmp_path, autostart=False) as revived:
            assert revived.job(job.job_id).status() == "EXPIRED"

    def test_mid_run_expiry_keeps_delivered_chunks(self, tmp_path):
        clock = FakeClock()
        # Chunks after the first carry a real 0.25 s sleep, giving the
        # test ample time to advance the fake clock past the deadline
        # between chunk boundaries.
        slow = FaultInjector(
            [FaultSpec("slow", probability=1.0, latency=0.25)],
            seed=CHAOS_SEED,
        )
        with RuntimeService(tmp_path, clock=clock) as service:
            # The stabilizer backend pays per shot, so its shots split.
            job = service.submit(
                _bell(), "stabilizer_simulator", shots=3000, seed=42,
                shot_chunk_size=1024, executor="serial",
                fault_injector=slow, deadline=10.0,
            )
            stream = job.stream()
            first = next(stream)
            assert first["type"] == "chunk"
            clock.advance(11.0)
            result = job.result(timeout=60)
        assert job.status() == "EXPIRED"
        merged = result.results[0]
        # Cooperative cancel at a chunk boundary: the delivered chunks
        # are kept, the remainder are CANCELLED.
        assert merged.status == "CANCELLED"
        assert 1 <= merged.completed_chunks < 3
        assert sum(merged.data["counts"].values()) == \
            1024 * merged.completed_chunks

    def test_job_without_deadline_never_expires(self, tmp_path):
        clock = FakeClock()
        with RuntimeService(tmp_path, autostart=False,
                            clock=clock) as service:
            job = service.submit(_bell(), shots=200, seed=11)
            clock.advance(1e6)
            service.start()
            assert job.result(timeout=30).get_counts() == _reference(
                shots=200, seed=11
            )


class TestCircuitBreaker:
    def test_unit_state_machine_is_deterministic(self):
        clock = FakeClock()
        breaker = CircuitBreaker("qasm_simulator", failure_threshold=2,
                                 reset_timeout=5.0, seed=CHAOS_SEED,
                                 clock=clock)
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        window = breaker.snapshot()["probe_window_s"]
        assert 5.0 <= window <= 5.0 * 1.25
        clock.advance(window)
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allows_dispatch()
        assert breaker.on_dispatch() is True  # a probe
        assert not breaker.allows_dispatch()  # probe quota in flight
        breaker.record_failure(probe=True)
        assert breaker.state == BreakerState.OPEN
        # The re-open generation draws a fresh (still deterministic)
        # jitter; replaying the same seed reproduces both windows.
        twin = CircuitBreaker("qasm_simulator", failure_threshold=2,
                              reset_timeout=5.0, seed=CHAOS_SEED,
                              clock=FakeClock())
        twin.record_failure()
        twin.record_failure()
        assert twin.snapshot()["probe_window_s"] == window

    def test_breaker_opens_and_recovers_via_probe(self, tmp_path):
        clock = FakeClock()
        with RuntimeService(
            tmp_path, max_workers=1, clock=clock, service_attempts=1,
            breaker={"failure_threshold": 2, "reset_timeout": 5.0,
                     "seed": CHAOS_SEED},
        ) as service:
            # Two poison jobs in a row: each exhausts its (disabled)
            # retries with an infrastructure fault, quarantines, and
            # counts one consecutive failure against the backend.
            for index in range(2):
                bad = service.submit(_bell(), shots=10, seed=index,
                                     fault_injector=_poison_injector(),
                                     retry_policy=False)
                with pytest.raises(JobQuarantinedError):
                    bad.result(timeout=30)
            snapshot = service.breaker_snapshot()["qasm_simulator"]
            assert snapshot["state"] == BreakerState.OPEN
            # A healthy job now waits: the open breaker blocks the
            # backend exactly like saturation.
            good = service.submit(_bell(), shots=500, seed=11)
            with pytest.raises(Exception):
                good.result(timeout=0.3)
            assert good.status() == "QUEUED"
            # Past the (seeded) probe window the job dispatches as the
            # half-open probe; success closes the breaker.
            clock.advance(snapshot["probe_window_s"] + 0.001)
            assert good.result(timeout=30).get_counts() == _reference()
            final = service.breaker_snapshot()["qasm_simulator"]
            assert final["state"] == BreakerState.CLOSED
        history = [state for state, _gen in
                   service._breakers["qasm_simulator"].transitions]
        assert history == [BreakerState.OPEN, BreakerState.HALF_OPEN,
                           BreakerState.CLOSED]

    def test_user_errors_do_not_open_the_breaker(self, tmp_path):
        # A genuine user error that only the run can find: a circuit wider
        # than the simulator's dense-array limit (an over-limit ``shots``
        # is refused at submit, before anything reaches the backend).
        wide = QuantumCircuit(40, 1, name="bad")
        wide.h(0)
        wide.measure(0, 0)
        with RuntimeService(
            tmp_path, breaker={"failure_threshold": 1},
        ) as service:
            bad = service.submit(wide, shots=10)
            assert bad.result(timeout=30).success is False
            assert bad.status() == "ERROR"
            assert service.breaker_snapshot().get(
                "qasm_simulator", {}
            ).get("state", BreakerState.CLOSED) == BreakerState.CLOSED
            # The backend still takes traffic immediately.
            good = service.submit(_bell(), shots=500, seed=11)
            assert good.result(timeout=30).get_counts() == _reference()


class TestQuarantine:
    def test_poison_job_quarantines_with_fault_ledger(self, tmp_path):
        with RuntimeService(tmp_path, service_attempts=2) as service:
            job = service.submit(_bell(), shots=10, seed=1,
                                 fault_injector=_poison_injector(),
                                 retry_policy=False)
            with pytest.raises(JobQuarantinedError) as info:
                job.result(timeout=30)
        assert job.status() == "QUARANTINED"
        assert "2 service attempts" in str(info.value)
        ledger = job.quarantine_record
        assert ledger is not None
        assert ledger["fault_stats"]["faults_injected"] >= 1
        assert "TransientFaultError" in ledger["error"]
        assert job.service_attempts == 2

    def test_quarantine_survives_restart(self, tmp_path):
        with RuntimeService(tmp_path, service_attempts=1) as service:
            job = service.submit(_bell(), shots=10, seed=1,
                                 fault_injector=_poison_injector(),
                                 retry_policy=False)
            with pytest.raises(JobQuarantinedError):
                job.result(timeout=30)
        with RuntimeService(tmp_path, autostart=False) as revived:
            twin = revived.job(job.job_id)
            assert twin.status() == "QUARANTINED"
            assert twin.quarantine_record["fault_stats"][
                "faults_injected"
            ] >= 1
            with pytest.raises(JobQuarantinedError):
                twin.result(timeout=1)

    def test_requeue_with_fixed_options_succeeds(self, tmp_path):
        with RuntimeService(tmp_path, service_attempts=1) as service:
            job = service.submit(_bell(), shots=500, seed=11,
                                 fault_injector=_poison_injector(),
                                 retry_policy=False)
            with pytest.raises(JobQuarantinedError):
                job.result(timeout=30)
            # Operator fixes the cause (drops the poison injector) and
            # requeues; the job re-runs under the same id and succeeds
            # with bit-identical counts.
            revived = service.requeue(job.job_id, fault_injector=None)
            assert revived is job
            assert revived.result(timeout=30).get_counts() == _reference()
        assert job.status() == "DONE"
        # The quarantine ledger stays for the audit trail.
        assert job.quarantine_record is not None

    def test_requeue_refuses_unknown_option_overrides(self, tmp_path):
        with RuntimeService(tmp_path, service_attempts=1) as service:
            job = service.submit(_bell(), shots=500, seed=11,
                                 fault_injector=_poison_injector(),
                                 retry_policy=False)
            with pytest.raises(JobQuarantinedError):
                job.result(timeout=30)
            with pytest.raises(BackendError, match="fault_injecter"):
                service.requeue(job.job_id, fault_injecter=None)
            assert job.status() == "QUARANTINED"

    def test_pubs_requeue_refuses_cache_namespace(self, tmp_path):
        a = Parameter("a")
        template = QuantumCircuit(1, 1)
        template.ry(a, 0)
        template.measure(0, 0)
        with RuntimeService(tmp_path, autostart=False) as service:
            job = service.submit_pubs([(template, [[0.3]], [a])], shots=10)
            job.cancel()
            assert job.status() == "CANCELLED"
            # ``cache_namespace`` is no option of any job.
            with pytest.raises(BackendError, match="cache_namespace"):
                service.requeue(job.job_id, cache_namespace="a")
            assert job.status() == "CANCELLED"

    def test_requeued_clean_run_reports_its_own_ledger(self, tmp_path):
        with RuntimeService(tmp_path, service_attempts=1) as service:
            job = service.submit(_bell(), shots=500, seed=11,
                                 fault_injector=_poison_injector(),
                                 retry_policy=False)
            with pytest.raises(JobQuarantinedError):
                job.result(timeout=30)
            assert job.fault_stats["faults_injected"] >= 1
            assert job.fault_stats["failed_experiments"] == ["bell"]
            service.requeue(job.job_id, fault_injector=None)
            job.result(timeout=30)
        # The clean re-run's ledger is its own, not the quarantined
        # run's; the quarantine record keeps the first run's for audit.
        assert job.status() == "DONE"
        assert job.fault_stats["faults_injected"] == 0
        assert job.fault_stats["failed_experiments"] == []
        assert job.fault_stats["attempts"] == 1
        assert job.quarantine_record["fault_stats"]["faults_injected"] >= 1

    def test_requeued_rerun_keeps_both_runs_spans(self, tmp_path):
        from repro.telemetry import disable_tracing, enable_tracing

        enable_tracing()
        try:
            with RuntimeService(tmp_path, service_attempts=1) as service:
                job = service.submit(_bell(), shots=500, seed=11,
                                     fault_injector=_poison_injector(),
                                     retry_policy=False)
                with pytest.raises(JobQuarantinedError):
                    job.result(timeout=30)
                service.requeue(job.job_id, fault_injector=None)
                job.result(timeout=30)
                trace = job.trace()
        finally:
            disable_tracing()
        # One dispatch subtree per run, numbered in run order: the
        # quarantined run's attempt failed, the clean re-run's did not,
        # and the root reports the latest run.
        dispatches = trace.find("dispatch")
        assert [span.seq for span in dispatches] == [0, 1]
        runs = [
            [run for experiment in trace.children(dispatch)
             for run in trace.children(experiment)]
            for dispatch in dispatches
        ]
        assert [[span.status for span in spans] for spans in runs] == [
            ["ERROR"], ["OK"],
        ]
        assert trace.root.name == "job"
        assert trace.root.status == "OK"

    def test_requeued_rerun_adds_to_the_fleet_counters(self, tmp_path):
        def fleet():
            registry = get_metrics_registry()
            return [
                registry.counter(name).value()
                for name in ("repro_job_attempts_total",
                             "repro_job_experiments_total")
            ]

        before = fleet()
        with RuntimeService(tmp_path, service_attempts=1) as service:
            job = service.submit(_bell(), shots=500, seed=11,
                                 fault_injector=_poison_injector(),
                                 retry_policy=False)
            with pytest.raises(JobQuarantinedError):
                job.result(timeout=30)
            service.requeue(job.job_id, fault_injector=None)
            job.result(timeout=30)
        # Two provider jobs ran, the quarantined one and the clean
        # re-run, one attempt at one experiment each.
        assert [after - start for after, start in zip(fleet(), before)] \
            == [2, 2]

    def test_requeued_fix_survives_restart(self, tmp_path):
        with RuntimeService(tmp_path, service_attempts=1,
                            autostart=True) as service:
            job = service.submit(_bell(), shots=500, seed=11,
                                 fault_injector=_poison_injector(),
                                 retry_policy=False)
            with pytest.raises(JobQuarantinedError):
                job.result(timeout=30)
            job_id = job.job_id
        # Requeue offline (overrides persisted), then restart: recovery
        # replays the *corrected* options, not the poison original, and
        # never resumes the poisoned attempt's checkpoint — with one
        # service attempt, the first dispatch must already be clean.
        with RuntimeService(tmp_path, autostart=False) as fixer:
            fixer.requeue(job_id, fault_injector=None)
        with RuntimeService(tmp_path, service_attempts=1) as runner:
            result = runner.job(job_id).result(timeout=30)
        assert result.get_counts() == _reference()

    def test_running_job_cannot_be_requeued(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            job = service.submit(_bell(), shots=10)
            with pytest.raises(BackendError):
                service.requeue(job.job_id)

    def test_transient_weather_retries_at_service_level(self, tmp_path):
        # 60% fault probability with retries *disabled* at the
        # experiment level: the service-level attempts absorb what the
        # per-experiment retry chain would have.  Either some attempt
        # comes up clean (DONE, counts bit-identical to the quiet run)
        # or the budget exhausts (QUARANTINED) — never a hung worker.
        flaky = FaultInjector(
            [FaultSpec("transient", probability=0.6)], seed=CHAOS_SEED
        )
        with RuntimeService(tmp_path, service_attempts=4) as service:
            job = service.submit(_bell(), shots=500, seed=11,
                                 fault_injector=flaky,
                                 retry_policy=False)
            try:
                result = job.result(timeout=60)
                assert result.get_counts() == _reference()
                assert job.status() == "DONE"
            except JobQuarantinedError:
                assert job.status() == "QUARANTINED"
                assert job.service_attempts == 4
