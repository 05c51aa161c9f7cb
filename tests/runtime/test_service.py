"""RuntimeService behaviour: parity with direct runs, queueing, recovery."""

from __future__ import annotations

import json
import os

import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import BackendError, JobTimeoutError
from repro.providers import Aer
from repro.runtime import RuntimeService
from repro.telemetry.metrics import get_metrics_registry


def _bell(name="bell"):
    circuit = QuantumCircuit(2, 2, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


def _direct_counts(shots=1000, seed=7):
    return Aer.get_backend("qasm_simulator").run(
        _bell(), shots=shots, seed=seed,
    ).result().get_counts()


class TestServiceParity:
    def test_service_job_matches_direct_run_bit_identically(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            job = service.submit(_bell(), shots=1000, seed=7)
            assert job.result(timeout=30).get_counts() == _direct_counts()
            assert job.status() == "DONE"

    def test_batch_and_options_pass_through(self, tmp_path):
        circuits = [_bell("a"), _bell("b")]
        reference = Aer.get_backend("qasm_simulator").run(
            circuits, shots=600, seed=3, executor="serial",
        ).result()
        with RuntimeService(tmp_path) as service:
            job = service.submit(circuits, shots=600, seed=3,
                                 executor="serial")
            result = job.result(timeout=30)
        for name in ("a", "b"):
            assert result.get_counts(name) == reference.get_counts(name)

    def test_job_runs_the_payload_it_journaled(self, tmp_path):
        # The caller keeps its circuit: an edit after submit reaches
        # neither the queued job nor a restart's replay of its record.
        circuit = _bell()
        reference = Aer.get_backend("qasm_simulator").run(
            circuit, shots=200, seed=1,
        ).result().get_counts()
        with RuntimeService(tmp_path, autostart=False) as service:
            job = service.submit(circuit, shots=200, seed=1)
            circuit.x(0)
            service.start()
            assert job.result(timeout=30).get_counts() == reference

    def test_stream_relays_chunk_and_experiment_events(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            # The stabilizer backend pays per shot, so its shots split.
            job = service.submit(_bell(), "stabilizer_simulator",
                                 shots=3000, seed=42, shot_chunk_size=1024,
                                 executor="serial")
            events = list(job.stream())
        kinds = [event["type"] for event in events]
        assert kinds == ["chunk", "chunk", "chunk", "experiment"]
        assert job.status() == "DONE"

    def test_pubs_jobs_run_through_the_service(self, tmp_path):
        import numpy as np

        from repro.circuit import Parameter

        theta = Parameter("theta")
        circuit = QuantumCircuit(1, 1, name="rotation")
        circuit.rx(theta, 0)
        circuit.measure(0, 0)
        values = np.array([[0.0], [np.pi]])
        backend = Aer.get_backend("qasm_simulator")
        reference = backend.run_pubs(
            [(circuit, values, [theta])], shots=400, seed=5,
        ).result()
        with RuntimeService(tmp_path) as service:
            job = service.submit_pubs([(circuit, values, [theta])],
                                      shots=400, seed=5)
            result = job.result(timeout=30)
        for ours, theirs in zip(result.results, reference.results):
            assert ours.data == theirs.data

    def test_failed_experiment_surfaces_as_error_state(self, tmp_path):
        # A user error (a circuit wider than the simulator's dense-array
        # limit) is not retried or dead-lettered: the job terminates in
        # ERROR with the Result still returned, provider-job style.
        wide = QuantumCircuit(40, 1, name="wide")
        wide.h(0)
        wide.measure(0, 0)
        with RuntimeService(tmp_path) as service:
            job = service.submit([_bell(), wide], shots=10, seed=1)
            result = job.result(timeout=30)
        assert job.status() == "ERROR"
        assert result.success is False
        assert result.get_counts("bell") == Aer.get_backend(
            "qasm_simulator"
        ).run([_bell(), wide], shots=10, seed=1).result().get_counts("bell")

    def test_checkpoint_option_is_refused(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            with pytest.raises(BackendError):
                service.submit(_bell(), checkpoint=str(tmp_path / "x"))
            assert service.jobs() == []

    def test_store_holds_only_the_journal(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            for seed in range(3):
                service.submit(_bell(), shots=3000, seed=seed,
                               shot_chunk_size=1024).result(timeout=30)
        assert sorted(os.listdir(tmp_path)) == [
            "jobs.jsonl", "jobs.jsonl.lock",
        ]

    def test_job_record_is_the_only_copy_of_the_payload(self, tmp_path):
        # The job record is the checkpoint: a single-chunk circuits job
        # journals it once, then its states, one chunk and the result.
        with RuntimeService(tmp_path) as service:
            service.submit(_bell(), shots=100, seed=1).result(timeout=30)
        with open(tmp_path / "jobs.jsonl", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert [(record["type"], record.get("state"))
                for record in records] == [
            ("job", None), ("state", "QUEUED"), ("state", "RUNNING"),
            ("chunk", None), ("result", None), ("state", "DONE"),
        ]

    @pytest.mark.parametrize("shots", [0, 1.5, "8", "abc"])
    def test_bad_shots_are_refused_before_journaling(self, tmp_path, shots):
        with RuntimeService(tmp_path, autostart=False) as service:
            with pytest.raises(BackendError, match="shots must be"):
                service.submit(_bell(), shots=shots)
            assert service.jobs() == []
        # Nothing was journaled: a restart finds no job to recover.
        with RuntimeService(tmp_path, autostart=False) as service:
            assert service.jobs() == []

    def test_shots_above_backend_maximum_are_refused_at_submit(
            self, tmp_path):
        limit = Aer.get_backend("qasm_simulator").configuration().max_shots
        with RuntimeService(tmp_path, autostart=False) as service:
            with pytest.raises(BackendError, match="exceeds backend maximum"):
                service.submit(_bell(), shots=limit + 1)
            assert service.jobs() == []
        # Nothing was journaled: a restart finds no job to recover.
        with RuntimeService(tmp_path, autostart=False) as service:
            assert service.jobs() == []

    def test_requeue_refuses_shots_above_backend_maximum(self, tmp_path):
        limit = Aer.get_backend("qasm_simulator").configuration().max_shots
        with RuntimeService(tmp_path, autostart=False) as service:
            job = service.submit(_bell(), shots=10)
            job.cancel()
            journal = (tmp_path / "jobs.jsonl").read_bytes()
            with pytest.raises(BackendError, match="exceeds backend maximum"):
                service.requeue(job.job_id, shots=limit + 1)
            assert job.status() == "CANCELLED"
            assert (tmp_path / "jobs.jsonl").read_bytes() == journal

    def test_requeue_refuses_bad_shots(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            job = service.submit(_bell(), shots=10)
            job.cancel()
            with pytest.raises(BackendError, match="shots must be"):
                service.requeue(job.job_id, shots=0)
            assert job.status() == "CANCELLED"

    def test_cache_namespace_is_an_unknown_option(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            with pytest.raises(BackendError, match="cache_namespace"):
                service.submit(_bell(), shots=10, cache_namespace="a")
            with pytest.raises(BackendError, match="cache_namespace"):
                service.session().run(_bell(), cache_namespace="a")
            assert service.jobs() == []

    def test_journaled_cache_namespace_job_ends_error(self, tmp_path):
        from repro.runtime.store import JobRecord, JobStore

        store = JobStore(tmp_path)
        store.append_job(JobRecord(
            "rt-0", "default", ("aer", "qasm_simulator"), 0, None,
            "circuits", _bell(), {"shots": 10, "cache_namespace": "a"},
        ))
        store.append_state("rt-0", "QUEUED")
        with RuntimeService(tmp_path) as service:
            job = service.job("rt-0")
            with pytest.raises(BackendError, match="cache_namespace"):
                job.result(timeout=30)
            assert job.status() == "ERROR"

    def test_unknown_backend_rejected_at_submit(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            with pytest.raises(BackendError):
                service.submit(_bell(), backend="no_such_backend")

    def test_result_timeout_raises_and_job_keeps_running(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            job = service.submit(_bell(), shots=100, seed=1)
            with pytest.raises(JobTimeoutError):
                job.result(timeout=0.01)
            assert job.status() == "QUEUED"
            service.start()
            assert job.result(timeout=30).get_counts() == _direct_counts(
                shots=100, seed=1
            )


class TestQueueing:
    def test_jobs_queue_while_service_is_stopped(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            jobs = [service.submit(_bell(), shots=50, seed=i)
                    for i in range(3)]
            assert all(job.status() == "QUEUED" for job in jobs)
            assert service.queue_snapshot()["default"]["pending"] == 3
            service.start()
            for job in jobs:
                job.result(timeout=30)
            assert all(job.status() == "DONE" for job in jobs)

    def test_priority_orders_within_tenant(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False,
                            max_workers=1) as service:
            low = service.submit(_bell(), shots=50, seed=1, priority=0)
            high = service.submit(_bell(), shots=50, seed=2, priority=5)
            service.start()
            low.result(timeout=30)
            high.result(timeout=30)
        # The high-priority job dispatched first even though it was
        # submitted second: compare queue-wait observations.
        assert high.provider_job is not None and low.provider_job is not None

    def test_fair_share_dispatch_order_tracks_weights(self, tmp_path):
        """Two tenants' bursts interleave proportionally to weight.

        With the workers parked, the scheduler's deterministic pick
        order is observable directly: weight 2 tenant gets 2 of every
        3 picks.
        """
        with RuntimeService(tmp_path, autostart=False) as service:
            service.set_tenant("heavy", weight=2.0)
            service.set_tenant("light", weight=1.0)
            for index in range(6):
                service.submit(_bell(), shots=10, seed=index,
                               tenant="heavy")
            for index in range(3):
                service.submit(_bell(), shots=10, seed=index,
                               tenant="light")
            order = []
            while True:
                job_id = service._scheduler.next_ready()
                if job_id is None:
                    break
                order.append(service.job(job_id).tenant)
        heavy_in_first_six = order[:6].count("heavy")
        assert heavy_in_first_six == 4
        assert order.count("heavy") == 6 and order.count("light") == 3

    def test_rate_limited_tenant_queues_rather_than_errors(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            service.set_tenant("burst", weight=1.0, rate=50.0, burst=1)
            jobs = [
                service.submit(_bell(), shots=20, seed=index,
                               tenant="burst")
                for index in range(4)
            ]
            # All jobs complete — none errored; the bucket (1 token,
            # 50/s refill) forced the tail of the burst to wait queued.
            for job in jobs:
                assert job.result(timeout=30).success
            assert all(job.status() == "DONE" for job in jobs)

    def test_backend_concurrency_cap_is_respected(self, tmp_path):
        with RuntimeService(tmp_path, max_workers=4,
                            backend_limits={"qasm_simulator": 1},
                            autostart=False) as service:
            jobs = [service.submit(_bell(), shots=200, seed=index)
                    for index in range(4)]
            service.start()
            for job in jobs:
                assert job.result(timeout=30).success

    def test_cancel_queued_job(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            job = service.submit(_bell(), shots=100, seed=1)
            assert job.cancel() is True
            assert job.status() == "CANCELLED"
            with pytest.raises(BackendError):
                job.result(timeout=1)
            # Idempotent; the store remembers the cancellation.
            assert job.cancel() is False
        reopened = RuntimeService(tmp_path, autostart=False)
        assert reopened.job(job.job_id).status() == "CANCELLED"
        reopened.shutdown()


class TestTelemetry:
    def test_queue_depth_and_wait_metrics_recorded(self, tmp_path):
        registry = get_metrics_registry()
        with RuntimeService(tmp_path, autostart=False) as service:
            service.set_tenant("observed", weight=1.0)
            job = service.submit(_bell(), shots=50, seed=1,
                                 tenant="observed")
            depth = registry.get("repro_runtime_queue_depth").value(
                labels={"tenant": "observed"}
            )
            assert depth == 1
            service.start()
            job.result(timeout=30)
        depth = registry.get("repro_runtime_queue_depth").value(
            labels={"tenant": "observed"}
        )
        assert depth == 0
        waits = registry.get("repro_runtime_wait_seconds").snapshot(
            labels={"tenant": "observed"}
        )
        assert waits["count"] >= 1
        submitted = registry.get("repro_runtime_jobs_submitted").value(
            labels={"tenant": "observed"}
        )
        assert submitted >= 1
        completed = registry.get("repro_runtime_jobs_completed").value(
            labels={"tenant": "observed", "state": "DONE"}
        )
        assert completed >= 1

    def test_job_trace_records_queued_span(self, tmp_path):
        from repro.telemetry import disable_tracing, enable_tracing

        enable_tracing()
        try:
            with RuntimeService(tmp_path) as service:
                job = service.submit(_bell(), shots=50, seed=1)
                job.result(timeout=30)
                trace = job.trace()
            names = [span.name for span in trace.spans]
            assert "queued" in names
            assert "job" in names
        finally:
            disable_tracing()


class TestRecovery:
    def test_queued_jobs_survive_a_restart(self, tmp_path):
        service = RuntimeService(tmp_path, autostart=False)
        job = service.submit(_bell(), shots=1000, seed=7)
        job_id = job.job_id
        service.shutdown()
        del service  # process "dies" with the job still queued

        revived = RuntimeService(tmp_path)
        try:
            recovered = revived.job(job_id)
            assert recovered.result(timeout=30).get_counts() == (
                _direct_counts()
            )
            assert recovered.status() == "DONE"
        finally:
            revived.shutdown()

    def test_restart_dispatches_in_submission_order(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            job_ids = [
                service.submit(_bell(), shots=10, seed=seed).job_id
                for seed in range(12)
            ]
        with RuntimeService(tmp_path, max_workers=1) as revived:
            for job_id in job_ids:
                revived.job(job_id).result(timeout=30)
        # One worker runs the recovered jobs one by one, so the RUNNING
        # records in the journal give the dispatch order: rt-2 before
        # rt-10, not string order.
        with open(os.path.join(tmp_path, "jobs.jsonl")) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        running = [
            record["job_id"] for record in records
            if record["type"] == "state" and record["state"] == "RUNNING"
        ]
        assert running == job_ids

    def test_done_jobs_reload_with_results(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            job = service.submit(_bell(), shots=1000, seed=7)
            reference = job.result(timeout=30).get_counts()
            job_id = job.job_id
        reopened = RuntimeService(tmp_path, autostart=False)
        try:
            loaded = reopened.job(job_id)
            assert loaded.status() == "DONE"
            assert loaded.result(timeout=1).get_counts() == reference
        finally:
            reopened.shutdown()

    def test_service_start_replays_the_journal_once(
        self, tmp_path, monkeypatch
    ):
        from repro.providers.journal import Journal

        with RuntimeService(tmp_path) as service:
            service.submit(_bell(), shots=100, seed=1).result(timeout=30)
        replays = []
        original = Journal.replay

        def counted(journal):
            replays.append(journal.path)
            return original(journal)

        monkeypatch.setattr(Journal, "replay", counted)
        revived = RuntimeService(tmp_path, autostart=False)
        try:
            assert len(replays) == 1
            assert revived.submit(_bell(), shots=10).job_id == "rt-1"
            assert len(replays) == 1
        finally:
            revived.shutdown()

    def test_jobs_listing_filters_by_tenant(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            service.submit(_bell(), shots=10, seed=1, tenant="a")
            service.submit(_bell(), shots=10, seed=2, tenant="b")
            service.submit(_bell(), shots=10, seed=3, tenant="a")
            assert len(service.jobs()) == 3
            mine = service.jobs(tenant="a")
            assert [job.tenant for job in mine] == ["a", "a"]
            # Newest first.
            assert mine[0].job_id > mine[1].job_id
