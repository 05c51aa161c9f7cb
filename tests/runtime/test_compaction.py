"""Compaction and retention: correctness under concurrency and crashes.

The satellite invariants from the hardening issue:

* compaction racing concurrent appenders loses no record (the shared/
  exclusive flock protocol serializes them at the filesystem level, even
  across *independent* :class:`JobStore` instances — the multi-process
  shape);
* a process killed mid-compaction leaves a replayable ledger: the
  snapshot is built in a temp file and published atomically, so replay
  sees the complete old ledger or the complete new one, never a hybrid;
* compact + restart replays bit-identically — recovered DONE jobs carry
  the exact persisted Result, and a RUNNING job's checkpoint (its job
  and chunk records in the same journal) survives for a bit-identical
  resume.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import BackendError
from repro.providers import Aer, Job, checkpoint, journal
from repro.runtime import (
    JobRecord,
    JobStore,
    RetentionPolicy,
    RuntimeService,
    store as store_module,
)
from repro.telemetry.jobtrace import JobTrace


def _bell(name="bell"):
    circuit = QuantumCircuit(2, 2, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


def _record(job_id, submitted_at=None):
    return JobRecord(job_id, "default", ("aer", "qasm_simulator"), 0,
                     None, "circuits", "payload", {"shots": 10},
                     submitted_at=submitted_at)


def _chunked_run(path, job_id, shots, chunk):
    """A serial chunked Bell job checkpointing into the journal at
    ``path`` under ``job_id``: its job record is appended now, its chunk
    records as the (lazy) job streams.  The stabilizer backend pays per
    shot, so the Bell's shots split into chunk payloads."""
    return Aer.get_backend("stabilizer_simulator").run(
        _bell(), shots=shots, seed=42, shot_chunk_size=chunk,
        executor="serial", checkpoint=path,
        job_trace=JobTrace(job_id, "stabilizer_simulator"),
    )


def _reference(shots, chunk):
    return Aer.get_backend("stabilizer_simulator").run(
        _bell(), shots=shots, seed=42, shot_chunk_size=chunk,
        executor="serial",
    ).result().get_counts()


def _running_job(store, job_id, submitted_at=None):
    """Journal ``job_id`` as RUNNING (no checkpoint)."""
    store.append_job(_record(job_id, submitted_at=submitted_at))
    store.append_state(job_id, "RUNNING")


def _running_chunked_job(store, job_id, shots, chunk):
    """A chunked run's job record plus a RUNNING state in the store's
    journal, as a service worker leaves them; the returned job appends
    its chunk records as it streams."""
    job = _chunked_run(store.path, job_id, shots, chunk)
    store.append_state(job_id, "RUNNING")
    return job


def _record_types(path):
    with open(path, encoding="utf-8") as handle:
        return [(entry["type"], entry["job_id"])
                for entry in map(json.loads, handle)]


def _loaded(store):
    """Everything :meth:`JobStore.load` recovers, as comparable values."""
    return {
        job_id: (
            record.tenant, record.backend_spec, record.priority,
            record.session, record.kind, record.payload, record.options,
            record.state, record.attempts, record.submitted_at,
            record.deadline, record.quarantine, record.checkpoint,
            None if record.result is None
            else record.result.get_counts(),
        )
        for job_id, record in store.load().items()
    }


class TestCompactionBasics:
    def test_compaction_copies_records_without_pickling(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(tmp_path)
        result = Aer.get_backend("qasm_simulator").run(
            _bell(), shots=100, seed=3,
        ).result()
        for index in range(3):
            _running_job(store, f"rt-{index}", submitted_at=time.time())
        store.append_result("rt-0", result)
        store.append_state("rt-0", "DONE")
        # rt-1 failed with a result, then was requeued with new options:
        # the latest job record wins and the old result is gone.
        store.append_result("rt-1", result)
        store.append_state("rt-1", "ERROR")
        record = store.load()["rt-1"]
        store.requeue(record, {"shots": 20})
        store.append_quarantine("rt-2", {"faults_injected": 1}, "boom")
        store.append_state("rt-2", "QUARANTINED")
        stream = _running_chunked_job(store, "rt-3", 300, 100).stream()
        next(stream)
        before = _loaded(store)

        def refuse(*args, **kwargs):
            raise AssertionError("compaction must not (un)pickle")

        for module in (journal, checkpoint, store_module):
            for name in ("encode", "decode"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        stats = store.compact()
        monkeypatch.undo()
        assert stats["jobs_kept"] == 4
        assert _loaded(JobStore(tmp_path)) == before
        requeued = JobStore(tmp_path).load()["rt-1"]
        assert requeued.options == {"shots": 20}
        assert requeued.result is None

    def test_compact_shrinks_and_preserves_replay(self, tmp_path):
        store = JobStore(tmp_path)
        for index in range(5):
            record = _record(f"rt-{index}", submitted_at=time.time())
            store.append_job(record)
            store.append_state(record.job_id, "QUEUED")
            store.append_state(record.job_id, "RUNNING")
            store.append_state(record.job_id, "DONE")
        before = store.load()
        stats = store.compact()
        after = JobStore(tmp_path).load()
        assert stats["records_in"] == 5 * 4
        assert stats["records_out"] == 5 * 2  # job + final state each
        assert stats["bytes_out"] < stats["bytes_in"]
        assert stats["jobs_kept"] == 5 and stats["jobs_pruned"] == 0
        assert sorted(after) == sorted(before)
        for job_id, record in after.items():
            assert record.state == before[job_id].state == "DONE"
            assert record.options == before[job_id].options

    def test_retention_prunes_terminal_jobs_and_chunk_ledgers(
        self, tmp_path
    ):
        store = JobStore(tmp_path)
        now = time.time()
        for index in range(4):
            job_id = f"rt-{index}"
            _running_chunked_job(store, job_id, 200, 100).result()
            store.append_state(job_id, "DONE")
        # rt-4 is still running: retention must never touch it, and its
        # checkpoint must survive for a resume.
        stream = _running_chunked_job(store, "rt-4", 300, 100).stream()
        next(stream)
        stats = store.compact(
            retention=RetentionPolicy(max_terminal_jobs=2), now=now
        )
        remaining = JobStore(tmp_path).load()
        assert stats["jobs_pruned"] == 2
        assert sorted(remaining) == ["rt-2", "rt-3", "rt-4"]
        # Terminal jobs keep no chunk records; the running job keeps
        # its job record and its one finished chunk.
        assert [entry for entry in _record_types(store.path)
                if entry[1] == "rt-4"] == [
            ("job", "rt-4"), ("state", "rt-4"), ("chunk", "rt-4"),
        ]
        assert remaining["rt-2"].checkpoint is None
        assert set(remaining["rt-4"].checkpoint[1]) == {(0, 0)}
        assert sorted(os.listdir(tmp_path)) == [
            "jobs.jsonl", "jobs.jsonl.lock",
        ]

    def test_max_age_retention(self, tmp_path):
        store = JobStore(tmp_path)
        now = time.time()
        old = _record("rt-0", submitted_at=now - 7200)
        young = _record("rt-1", submitted_at=now - 60)
        for record in (old, young):
            store.append_job(record)
            store.append_state(record.job_id, "DONE")
        store.compact(retention=RetentionPolicy(max_age=3600), now=now)
        assert sorted(JobStore(tmp_path).load()) == ["rt-1"]

    def test_compaction_metrics_are_published(self, tmp_path):
        from repro.telemetry.metrics import get_metrics_registry

        store = JobStore(tmp_path)
        record = _record("rt-0", submitted_at=time.time())
        store.append_job(record)
        store.append_state("rt-0", "DONE")
        stats = store.compact()
        registry = get_metrics_registry()
        assert registry.get(
            "repro_runtime_compaction_records_out"
        ).value() == stats["records_out"]


class TestCompactionUnderService:
    def test_compact_and_restart_replays_bit_identically(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            jobs = [service.submit(_bell(), shots=300, seed=seed)
                    for seed in range(3)]
            counts = [job.result(timeout=30).get_counts()
                      for job in jobs]
            stats = service.compact()
        assert stats["jobs_kept"] == 3
        # A fresh service replays the compacted ledger: every DONE job
        # comes back with the exact persisted Result — zero lost or
        # duplicated results.
        with RuntimeService(tmp_path, autostart=False) as revived:
            assert len(revived.jobs()) == 3
            for job, expected in zip(reversed(revived.jobs()), counts):
                assert job.status() == "DONE"
                assert job.result(timeout=1).get_counts() == expected

    def test_pruned_job_ids_are_not_issued_again(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            for seed in range(2):
                service.submit(_bell(), shots=100, seed=seed).result(
                    timeout=30
                )
            stats = service.compact(RetentionPolicy(max_age=0))
            assert stats["jobs_pruned"] == 2
            # The mark survives compacting a journal that holds nothing
            # else.
            service.compact()
        with RuntimeService(tmp_path) as revived:
            assert revived.jobs() == []
            job = revived.submit(_bell(), shots=100, seed=2)
            assert job.job_id == "rt-2"
            job.result(timeout=30)

    def test_undecodable_job_is_journaled_error_once_then_pruned(
        self, tmp_path
    ):
        store = JobStore(tmp_path)
        store.append_job(_record("rt-0", submitted_at=time.time()))
        store.append_state("rt-0", "DONE")
        store.append_job(_record("rt-1", submitted_at=time.time()),
                         blob="corrupt")
        store.append_state("rt-1", "QUEUED")
        store.append_job(_record("rt-2", submitted_at=time.time()),
                         blob="corrupt")
        store.append_state("rt-2", "CANCELLED")
        for _ in range(2):  # the second restart journals nothing new
            with RuntimeService(tmp_path, autostart=False) as service:
                lost = service.job("rt-1")
                assert lost.status() == "ERROR"
                with pytest.raises(BackendError, match="does not decode"):
                    lost.result(timeout=1)
                with pytest.raises(BackendError, match="does not decode"):
                    service.requeue("rt-1")
                # A terminal job keeps its own state.
                assert service.job("rt-2").status() == "CANCELLED"
                with pytest.raises(BackendError, match="does not decode"):
                    service.requeue("rt-2")
        states = [
            (entry["job_id"], entry["state"])
            for entry in journal.Journal(store.path).replay()
            if entry["type"] == "state" and entry["job_id"] != "rt-0"
        ]
        assert states == [("rt-1", "QUEUED"), ("rt-2", "CANCELLED"),
                          ("rt-1", "ERROR")]
        # Terminal now, so retention prunes it with the other two.
        stats = store.compact(retention=RetentionPolicy(max_age=0))
        assert (stats["jobs_kept"], stats["jobs_pruned"]) == (0, 3)
        assert JobStore(tmp_path).load() == {}

    def test_compact_while_service_is_running(self, tmp_path):
        with RuntimeService(tmp_path, max_workers=2) as service:
            jobs = [service.submit(_bell(), shots=200, seed=seed)
                    for seed in range(6)]
            # Compact concurrently with the live workers appending
            # RUNNING/DONE transitions.
            for _ in range(5):
                service.compact()
            results = [job.result(timeout=30) for job in jobs]
            service.compact()
        assert all(result.success for result in results)
        records = JobStore(tmp_path).load()
        assert len(records) == 6
        assert all(r.state == "DONE" for r in records.values())
        assert all(r.result is not None for r in records.values())


def _append_chunks(path, job_id, shots, chunk):  # pragma: no cover
    """Child process: the worker-side chunk appends of a real job."""
    _chunked_run(path, job_id, shots, chunk).result()


class TestConcurrentAppenders:
    def test_compaction_races_independent_appender_stores(self, tmp_path):
        """Appenders and compactor use *separate* JobStore instances on
        one directory — the multi-process shape, coordinated only by the
        cross-process flock.  A second process appends a checkpointed
        job's job and chunk records, exactly as a direct run with
        ``checkpoint=`` does.  No append may be lost."""
        jobs = 30
        shots, chunk = 3000, 100
        seed_store = JobStore(tmp_path)
        for index in range(jobs):
            seed_store.append_job(
                _record(f"rt-{index}", submitted_at=time.time())
            )
        running = f"rt-{jobs}"
        stop = threading.Event()
        errors: list = []

        def appender():
            # Its own store instance: a different thread lock, so the
            # only serialization against the compactor is the flock.
            mine = JobStore(tmp_path)
            try:
                for index in range(jobs):
                    mine.append_state(f"rt-{index}", "QUEUED")
                    mine.append_state(f"rt-{index}", "RUNNING")
                    mine.append_state(f"rt-{index}", "DONE")
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def compactor():
            mine = JobStore(tmp_path)
            try:
                while not stop.is_set():
                    mine.compact()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        worker = multiprocessing.get_context("spawn").Process(
            target=_append_chunks,
            args=(seed_store.path, running, shots, chunk),
        )
        writer = threading.Thread(target=appender)
        packer = threading.Thread(target=compactor)
        packer.start()
        worker.start()
        writer.start()
        try:
            writer.join(timeout=60)
            worker.join(timeout=120)
        finally:
            stop.set()
            packer.join(timeout=60)
            if worker.is_alive():
                worker.kill()
        assert not errors
        assert not writer.is_alive() and not packer.is_alive()
        assert worker.exitcode == 0
        final = JobStore(tmp_path)
        final.compact()
        records = final.load()
        assert len(records) == jobs + 1
        assert all(
            record.state == "DONE" for job_id, record in records.items()
            if job_id != running
        ), {k: v.state for k, v in records.items() if v.state != "DONE"}
        assert set(records[running].checkpoint[1]) == {
            (0, index) for index in range(shots // chunk)
        }
        # Resumed from the compacted journal, the job re-runs nothing
        # and merges to the uninterrupted run's counts.
        resumed = Job.resume(final.path)
        assert resumed.result().get_counts() == _reference(shots, chunk)
        assert resumed.fault_stats["resumed_chunks"] == shots // chunk

    def test_post_compaction_appends_go_to_the_new_inode(self, tmp_path):
        store_a = JobStore(tmp_path)
        store_b = JobStore(tmp_path)
        record = _record("rt-0", submitted_at=time.time())
        store_a.append_job(record)
        store_a.append_state("rt-0", "DONE")
        store_b.compact()
        # store_a's next append must land in the replaced file (appends
        # reopen the path each time), not the unlinked old inode.
        store_a.append_job(_record("rt-1", submitted_at=time.time()))
        store_a.append_state("rt-1", "QUEUED")
        records = JobStore(tmp_path).load()
        assert sorted(records) == ["rt-0", "rt-1"]
        assert records["rt-1"].state == "QUEUED"


def _compact_forever(directory):  # pragma: no cover — child process
    store = JobStore(directory)
    while True:
        store.compact()


class TestCrashDuringCompaction:
    def test_killing_the_compactor_never_loses_records(self, tmp_path):
        jobs = 20
        store = JobStore(tmp_path)
        for index in range(jobs):
            record = _record(f"rt-{index}", submitted_at=time.time())
            store.append_job(record)
            store.append_state(record.job_id, "DONE")
        # A RUNNING job with 2 of its 3 chunks checkpointed.
        running = f"rt-{jobs}"
        stream = _running_chunked_job(store, running, 3000, 1024).stream()
        next(stream)
        next(stream)
        context = multiprocessing.get_context("fork")
        for round_number in range(3):
            child = context.Process(
                target=_compact_forever, args=(str(tmp_path),)
            )
            child.start()
            time.sleep(0.05 * (round_number + 1))
            child.kill()  # SIGKILL: no cleanup handlers run
            child.join(timeout=30)
            # Replay after the crash: the atomic replace guarantees a
            # complete old or new journal, so every job is still there
            # with its final state and the running job with its
            # checkpoint — zero lost, zero duplicated.
            records = JobStore(tmp_path).load()
            assert len(records) == jobs + 1
            assert all(
                record.state == "DONE" for job_id, record in records.items()
                if job_id != running
            )
            assert records[running].state == "RUNNING"
            assert set(records[running].checkpoint[1]) == {(0, 0), (0, 1)}
        # Orphaned temp snapshots may remain after a kill; they must
        # never be replayed and a later compaction run leaves a clean
        # single journal.
        JobStore(tmp_path).compact()
        records = JobStore(tmp_path).load()
        assert len(records) == jobs + 1
        leftovers = glob.glob(os.path.join(str(tmp_path), "*.compact.tmp"))
        # Stale temp files are inert; the published journal is the only
        # file replay ever reads.
        for path in leftovers:
            assert path != store.path
        # The surviving checkpoint resumes bit-identically: one chunk
        # re-runs, two come from the journal.
        resumed = Job.resume(store.path)
        assert resumed.result().get_counts() == _reference(3000, 1024)
        assert resumed.fault_stats["resumed_chunks"] == 2
