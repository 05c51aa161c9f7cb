"""Durable job store: JSON-lines ledger round trips and crash tolerance."""

from __future__ import annotations

import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import BackendError
from repro.runtime.store import JobRecord, JobStore


def _bell():
    circuit = QuantumCircuit(2, 2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


def _record(job_id, tenant="default", priority=0, session=None):
    return JobRecord(job_id, tenant, ("aer", "qasm_simulator"), priority,
                     session, "circuits", [_bell()],
                     {"shots": 100, "seed": 7})


class TestJobStore:
    def test_job_ids_are_monotone_across_restarts(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.next_job_id()
        second = store.next_job_id()
        assert (first, second) == ("rt-0", "rt-1")
        store.append_job(_record(second))
        reopened = JobStore(tmp_path)
        assert reopened.next_job_id() == "rt-2"

    def test_dropped_job_keeps_its_id(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"))
        store.append_state("rt-0", "QUEUED")
        store.append_job(_record("rt-1"), blob="corrupt")
        store.append_state("rt-1", "QUEUED")
        reopened = JobStore(tmp_path)
        # rt-1's payload does not decode, so nothing can run it again;
        # replay keeps it as ERROR and its id stays taken.
        assert sorted(reopened.load()) == ["rt-0", "rt-1"]
        assert reopened.next_job_id() == "rt-2"

    def test_roundtrip_preserves_payload_and_options(self, tmp_path):
        store = JobStore(tmp_path)
        record = _record("rt-0", tenant="alice", priority=3,
                         session="sess-1")
        store.append_job(record)
        loaded = JobStore(tmp_path).load()["rt-0"]
        assert loaded.tenant == "alice"
        assert loaded.priority == 3
        assert loaded.session == "sess-1"
        assert loaded.backend_spec == ("aer", "qasm_simulator")
        assert loaded.options == {"shots": 100, "seed": 7}
        assert loaded.payload[0].name == "bell"
        assert loaded.state == "SUBMITTED"

    def test_last_state_record_wins(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"))
        for state in ("QUEUED", "RUNNING", "DONE"):
            store.append_state("rt-0", state)
        assert JobStore(tmp_path).load()["rt-0"].state == "DONE"

    def test_unknown_state_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(BackendError):
            store.append_state("rt-0", "EXPLODED")

    def test_result_roundtrips_bit_identical(self, tmp_path):
        from repro.providers import Aer

        result = Aer.get_backend("qasm_simulator").run(
            _bell(), shots=500, seed=11,
        ).result()
        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"))
        store.append_state("rt-0", "DONE")
        store.append_result("rt-0", result)
        loaded = JobStore(tmp_path).load()["rt-0"]
        assert loaded.result.get_counts() == result.get_counts()
        assert loaded.result.success is result.success

    def test_only_jobs_that_can_run_again_decode_their_payload(
        self, tmp_path
    ):
        store = JobStore(tmp_path)
        for job_id, state in (("rt-0", "DONE"), ("rt-1", "QUEUED"),
                              ("rt-2", "ERROR"), ("rt-3", "QUARANTINED")):
            store.append_job(_record(job_id))
            store.append_state(job_id, state)
        loaded = JobStore(tmp_path).load()
        assert loaded["rt-0"].payload is None
        assert loaded["rt-0"].options is None
        for job_id in ("rt-1", "rt-2", "rt-3"):
            assert loaded[job_id].payload[0].name == "bell"
            assert loaded[job_id].options == {"shots": 100, "seed": 7}

    def test_done_job_with_a_corrupt_payload_keeps_its_result(
        self, tmp_path
    ):
        from repro.providers import Aer

        result = Aer.get_backend("qasm_simulator").run(
            _bell(), shots=50, seed=3,
        ).result()
        store = JobStore(tmp_path)
        for job_id in ("rt-0", "rt-1"):
            store.append_job(_record(job_id), blob="not a pickle")
        store.append_state("rt-0", "DONE")
        store.append_result("rt-0", result)
        store.append_state("rt-1", "QUEUED")
        loaded = JobStore(tmp_path).load()
        assert loaded["rt-0"].state == "DONE"
        assert loaded["rt-0"].result.get_counts() == result.get_counts()
        # A queued job the service cannot decode cannot run: ERROR.
        assert loaded["rt-1"].state == "ERROR"
        assert loaded["rt-1"].payload is None

    def test_undecodable_job_replays_as_error_without_payload(
        self, tmp_path
    ):
        from repro.providers.checkpoint import append_chunk
        from repro.providers.result import ExperimentResult

        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"))
        store.append_state("rt-0", "DONE")
        store.append_job(_record("rt-1"), blob="corrupt")
        store.append_state("rt-1", "RUNNING")
        append_chunk(store.path, "rt-1", 0, 0,
                     ExperimentResult("bell", 1, {"counts": {"00": 1}}))
        loaded = JobStore(tmp_path).load()
        assert sorted(loaded) == ["rt-0", "rt-1"]
        lost = loaded["rt-1"]
        assert lost.state == "ERROR"
        assert lost.payload is None and lost.options is None
        assert lost.checkpoint is None
        # Replay does not journal anything: the service's recovery does.
        assert lost.error is None
        with pytest.raises(BackendError, match="does not decode"):
            store.requeue(lost)

    def test_undecodable_terminal_job_keeps_its_state(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"), blob="corrupt")
        store.append_state("rt-0", "CANCELLED")
        (cancelled,) = JobStore(tmp_path).load().values()
        assert cancelled.state == "CANCELLED"
        assert cancelled.payload is None and cancelled.error is None
        with pytest.raises(BackendError, match="does not decode"):
            store.requeue(cancelled)

    def test_torn_tail_is_ignored(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"))
        store.append_state("rt-0", "QUEUED")
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "state", "job_id": "rt-0", "sta')
        loaded = JobStore(tmp_path).load()
        assert loaded["rt-0"].state == "QUEUED"

    def test_state_for_unknown_job_is_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_state("rt-9", "DONE")  # no job record
        assert JobStore(tmp_path).load() == {}

    def test_concurrent_multi_page_appends_lose_nothing(self, tmp_path):
        # More appending threads than cores, each with its own store and
        # records several pages long: every append must replay whole.
        import sys
        import threading

        threads, per_thread = 8, 40
        blob = "x" * 10000
        errors = []

        def appender(index):
            mine = JobStore(tmp_path)
            try:
                for number in range(per_thread):
                    record = _record(f"rt-{index * per_thread + number}")
                    record.options = {"blob": blob}
                    mine.append_job(record)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=appender, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(worker.is_alive() for worker in workers)
        records = JobStore(tmp_path).load()
        assert len(records) == threads * per_thread
        assert all(r.options == {"blob": blob} for r in records.values())

    def test_append_after_torn_tail_survives(self, tmp_path):
        # A crash tears the final line; the next process's first append
        # must not be swallowed into the fragment.
        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "state", "job_id": "rt-0", "sta')
        JobStore(tmp_path).append_job(_record("rt-1"))
        assert sorted(JobStore(tmp_path).load()) == ["rt-0", "rt-1"]

    def test_requeue_clears_the_checkpoint_and_keeps_the_audit_trail(
        self, tmp_path
    ):
        from repro.providers.checkpoint import append_chunk
        from repro.providers.result import ExperimentResult

        store = JobStore(tmp_path)
        store.append_job(_record("rt-0"))
        store.append_state("rt-0", "RUNNING")
        append_chunk(store.path, "rt-0", 0, 0,
                     ExperimentResult("bell", 1, {"counts": {"00": 1}}))
        running = JobStore(tmp_path).load()["rt-0"]
        assert set(running.checkpoint[1]) == {(0, 0)}
        store.append_quarantine("rt-0", {"faults_injected": 1}, "boom")
        store.append_state("rt-0", "QUARANTINED", attempt=2)
        record = JobStore(tmp_path).load()["rt-0"]
        with pytest.raises(BackendError):
            store.requeue(running)  # RUNNING: nothing to revive
        store.requeue(record, {"seed": 8})
        revived = JobStore(tmp_path).load()["rt-0"]
        assert revived.state == "QUEUED"
        assert revived.attempts == 0
        assert revived.options == {"shots": 100, "seed": 8}
        assert revived.checkpoint is None
        assert revived.quarantine["error"] == "boom"
