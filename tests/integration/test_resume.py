"""Kill-and-resume round trips through the checkpoint ledger.

The jobs run a Bell under :func:`_noise`, a small gate-noise model, so
their shots split into one payload per chunk.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.circuit import QuantumCircuit
from repro.providers import (
    Aer,
    ExperimentResult,
    FaultInjector,
    FaultSpec,
    Job,
    RetryPolicy,
)
from repro.providers.checkpoint import append_chunk, load_ledger, write_job
from repro.runtime import RuntimeService
from repro.simulators.noise import NoiseModel, depolarizing_error

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

FAST_RETRY = RetryPolicy(base_delay=0.0)

SHOTS = 3000
CHUNK = 1024
CHUNKS = 3


def _bell(name="bell"):
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.name = name
    return circuit


def _noise():
    """Small depolarizing gate noise: the Bell's shots split into
    chunk payloads under it."""
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), ["h"])
    model.add_all_qubit_quantum_error(depolarizing_error(0.02, 2), ["cx"])
    return model


def _run(path, consume=None, **options):
    """Start a checkpointed job; consume N stream events then abandon."""
    job = Aer.get_backend("qasm_simulator").run(
        [_bell()], shots=SHOTS, seed=42, shot_chunk_size=CHUNK,
        noise_model=_noise(), executor="serial",
        checkpoint=str(path), **options,
    )
    if consume is None:
        return job.result()
    stream = job.stream()
    for _ in range(consume):
        next(stream)
    return None  # simulated crash: job abandoned mid-stream


def _reference():
    return Aer.get_backend("qasm_simulator").run(
        [_bell()], shots=SHOTS, seed=42, shot_chunk_size=CHUNK,
        noise_model=_noise(), executor="serial",
    ).result().get_counts()


class TestResume:
    def test_resume_after_partial_run_is_bit_identical(self, tmp_path):
        for executor in ("serial", "processes"):
            path = tmp_path / f"{executor}.jsonl"
            _run(path, consume=2)  # 2 of 3 chunks persisted, then "crash"
            _header, chunks = load_ledger(str(path))
            assert set(chunks) == {(0, 0), (0, 1)}

            resumed = Job.resume(str(path), executor=executor)
            # The restored units are finished from launch: a pool is
            # handed only the missing one.
            dispatch = resumed._dispatch
            assert sorted(dispatch._outcomes) == [0, 1]
            assert sorted(dispatch._futures) == (
                [] if executor == "serial" else [2]
            )
            result = resumed.result()
            assert result.get_counts() == _reference()
            stats = resumed.fault_stats
            assert stats["resumed_chunks"] == 2
            assert stats["completed_chunks"] == 3

    def test_resumed_chunks_stream_first(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _run(path, consume=1)

        resumed = Job.resume(str(path))
        events = list(resumed.stream())
        assert [e["type"] for e in events] == [
            "chunk", "chunk", "chunk", "experiment",
        ]
        assert events[0]["chunk"] == 0
        assert events[0]["resumed"] is True
        assert all(e["resumed"] is False for e in events[1:3])
        assert resumed.result().get_counts() == _reference()

    def test_resume_with_complete_ledger_reruns_nothing(self, tmp_path):
        for executor in ("serial", "processes"):
            path = tmp_path / f"{executor}.jsonl"
            reference = _run(path).get_counts()

            resumed = Job.resume(str(path), executor=executor)
            # DONE at launch: no pool, nothing dispatched.
            assert resumed._dispatch.status() == "DONE"
            assert resumed._dispatch._pool is None
            assert resumed._dispatch._futures == {}
            result = resumed.result()
            assert result.get_counts() == reference
            stats = resumed.fault_stats
            assert stats["resumed_chunks"] == 3
            assert stats["total_chunks"] == 3

    def test_resume_under_chaos_is_bit_identical(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        injector = FaultInjector(
            [FaultSpec("transient", probability=0.6)], seed=CHAOS_SEED
        )
        _run(path, consume=2, fault_injector=injector,
             retry_policy=FAST_RETRY)

        injector = FaultInjector(
            [FaultSpec("transient", probability=0.6)], seed=CHAOS_SEED
        )
        resumed = Job.resume(str(path))
        # Resume re-arms its own pipeline; the counts contract is with
        # the seeded sampler, not the fault schedule.
        assert resumed.result().get_counts() == _reference()
        assert resumed.fault_stats["resumed_chunks"] == 2

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_resume_executor_override(self, tmp_path, executor):
        path = tmp_path / "ledger.jsonl"
        _run(path, consume=1)

        resumed = Job.resume(str(path), executor=executor)
        assert resumed.result().get_counts() == _reference()
        assert resumed.fault_stats["resumed_chunks"] == 1

    def test_resume_twice_from_same_ledger(self, tmp_path):
        # The ledger is a stable artifact: resuming again replays the
        # (now complete) chunk set without disturbing the counts.
        path = tmp_path / "ledger.jsonl"
        _run(path, consume=2)
        first = Job.resume(str(path)).result().get_counts()
        second = Job.resume(str(path)).result().get_counts()
        assert first == second == _reference()

    def test_chunks_cut_under_another_layout_rerun(self, tmp_path):
        # A chunk record is preloaded only where its descriptor is the
        # payload's own: chunks cut at 1500 shots never merge into a job
        # whose record plans 1000-shot chunks.
        options = {"shots": SHOTS, "seed": 42, "noise_model": _noise(),
                   "executor": "serial"}
        wide = str(tmp_path / "wide.jsonl")
        Aer.get_backend("qasm_simulator").run(
            [_bell()], shot_chunk_size=1500, checkpoint=wide, **options,
        ).result()
        _job, cut = load_ledger(wide)
        assert len(cut) == 2
        path = str(tmp_path / "ledger.jsonl")
        write_job(path, "job-x", ("aer", "qasm_simulator"), [_bell()],
                  dict(options, shot_chunk_size=1000))
        for (experiment, chunk), outcome in sorted(cut.items()):
            append_chunk(path, "job-x", experiment, chunk, outcome)
        resumed = Job.resume(path)
        assert resumed.result().get_counts() == Aer.get_backend(
            "qasm_simulator"
        ).run([_bell()], shot_chunk_size=1000, **options).result().get_counts()
        assert resumed.fault_stats["resumed_chunks"] == 0
        assert resumed.fault_stats["total_chunks"] == 3

    def test_chunk_record_of_an_unchunked_unit_reruns(self, tmp_path):
        # A noise-free Bell runs as one payload; a chunk record cut from
        # a split run of it is not that payload's outcome.
        options = {"shots": SHOTS, "seed": 42, "shot_chunk_size": CHUNK}
        path = str(tmp_path / "ledger.jsonl")
        write_job(path, "job-y", ("aer", "qasm_simulator"), [_bell()],
                  options)
        stale = ExperimentResult("bell", CHUNK, {"counts": {"00": CHUNK}})
        stale.chunk = {"index": 0, "total": CHUNKS, "start": 0,
                       "stop": CHUNK}
        append_chunk(path, "job-y", 0, 0, stale)
        resumed = Job.resume(path)
        assert resumed.result().get_counts() == Aer.get_backend(
            "qasm_simulator"
        ).run([_bell()], **options).result().get_counts()
        assert resumed.fault_stats["resumed_chunks"] == 0


#: Child process: start a runtime service, submit a chunked job, and
#: hard-kill the interpreter after N chunk events hit the stream.  A slow
#: fault holds the service worker for 0.5 s at chunk 2, so the kill lands
#: before the job can finish and persist its result.
_CRASHING_SERVICE = """
import os, sys
from repro.circuit import QuantumCircuit
from repro.providers import FaultInjector, FaultSpec, RetryPolicy
from repro.runtime import RuntimeService
from repro.simulators.noise import NoiseModel, depolarizing_error

store_dir, consume = sys.argv[1], int(sys.argv[2])
chaos = sys.argv[3] if len(sys.argv) > 3 else None

circuit = QuantumCircuit(2, 2)
circuit.h(0)
circuit.cx(0, 1)
circuit.measure(0, 0)
circuit.measure(1, 1)
circuit.name = "bell"
noise = NoiseModel()
noise.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), ["h"])
noise.add_all_qubit_quantum_error(depolarizing_error(0.02, 2), ["cx"])

specs = [FaultSpec("slow", chunks=[2], latency=0.5)]
options = dict(shots={shots}, seed=42, shot_chunk_size={chunk},
               noise_model=noise, executor="serial")
if chaos:
    specs.append(FaultSpec("transient", probability=0.4))
    options["retry_policy"] = RetryPolicy(base_delay=0.0)
options["fault_injector"] = FaultInjector(specs, seed=int(chaos or 0))

service = RuntimeService(store_dir)
job = service.submit(circuit, **options)
print(job.job_id, flush=True)
seen = 0
for event in job.stream():
    if event["type"] == "chunk":
        seen += 1
        if seen >= consume:
            os._exit(1)  # simulated crash: no shutdown, no cleanup
"""


def _crash_service(tmp_path, consume, chaos_seed=None):
    """Run the crashing child; returns (store_dir, job_id)."""
    store = tmp_path / "store"
    script = _CRASHING_SERVICE.format(shots=SHOTS, chunk=CHUNK)
    argv = [sys.executable, "-c", script, str(store), str(consume)]
    if chaos_seed is not None:
        argv.append(str(chaos_seed))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "src",
        )) if p
    )
    completed = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 1, completed.stderr
    job_id = completed.stdout.strip().splitlines()[0]
    return store, job_id


class TestServiceRestart:
    """Crash/restart durability of the runtime service: a job killed
    mid-run resumes bit-identically from the checkpoint records in the
    store's journal."""

    def test_killed_service_job_resumes_bit_identically(self, tmp_path):
        store, job_id = _crash_service(tmp_path, consume=2)

        revived = RuntimeService(str(store))
        try:
            job = revived.job(job_id)
            result = job.result(timeout=60)
            assert result.get_counts() == _reference()
            assert job.status() == "DONE"
            # The resume really did reuse the dead process's chunks.
            assert job.provider_job.fault_stats["resumed_chunks"] >= 1
        finally:
            revived.shutdown()

    def test_killed_service_job_resumes_under_chaos(self, tmp_path):
        store, job_id = _crash_service(tmp_path, consume=2,
                                       chaos_seed=CHAOS_SEED)

        revived = RuntimeService(str(store))
        try:
            result = revived.job(job_id).result(timeout=60)
            # The counts contract is with the seeded sampler: faults and
            # retries in either process never change the histogram.
            assert result.get_counts() == _reference()
        finally:
            revived.shutdown()

    def test_resumed_service_job_traces_its_run(self, tmp_path):
        from repro.telemetry import disable_tracing, enable_tracing

        store, job_id = _crash_service(tmp_path, consume=2)
        enable_tracing()
        try:
            revived = RuntimeService(str(store))
            try:
                job = revived.job(job_id)
                assert job.result(timeout=60).get_counts() == _reference()
                trace = job.trace()
            finally:
                revived.shutdown()
        finally:
            disable_tracing()
        # The resume runs as the runtime job itself, under its trace:
        # one dispatch span, with a chunk span for every chunk that ran
        # again.
        stats = job.provider_job.fault_stats
        assert job.provider_job.job_id == job_id
        dispatch = trace.find_one("dispatch")
        assert dispatch is not None
        chunks = [span for span in trace.children(dispatch)
                  if span.name == "chunk"]
        assert len(chunks) == CHUNKS - stats["resumed_chunks"] >= 1

    def test_restart_without_crash_reloads_the_result(self, tmp_path):
        store = tmp_path / "store"
        with RuntimeService(str(store)) as service:
            job = service.submit(_bell(), shots=SHOTS, seed=42,
                                 shot_chunk_size=CHUNK,
                                 noise_model=_noise(),
                                 executor="serial")
            reference = job.result(timeout=60).get_counts()
            job_id = job.job_id
        revived = RuntimeService(str(store), autostart=False)
        try:
            assert revived.job(job_id).result(timeout=1).get_counts() == (
                reference
            )
        finally:
            revived.shutdown()


class TestServiceCrashPoints:
    """A crash at every persistence point of a service circuits job.

    One 3-chunk dispatched job runs to DONE; each test restarts a
    service on a copy of its journal cut where a crash would have left
    it — after the RUNNING state, or after the k-th chunk record (the
    last of which is also just before the result) — and the job must
    finish with the uninterrupted counts, resuming exactly the chunks
    the cut kept.
    """

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("store")
        with RuntimeService(str(store)) as service:
            job = service.submit(_bell(), shots=SHOTS, seed=42,
                                 shot_chunk_size=CHUNK,
                                 noise_model=_noise(),
                                 executor="serial")
            counts = job.result(timeout=60).get_counts()
        with open(store / "jobs.jsonl", encoding="utf-8") as handle:
            lines = handle.readlines()
        return job.job_id, lines, counts

    @staticmethod
    def _points(lines):
        """Line indices of the RUNNING state and of the chunk records."""
        records = [json.loads(line) for line in lines]
        running = [index for index, record in enumerate(records)
                   if record.get("state") == "RUNNING"]
        chunks = [index for index, record in enumerate(records)
                  if record["type"] == "chunk"]
        assert len(running) == 1 and len(chunks) == CHUNKS
        return running[0], chunks

    @staticmethod
    def _restart(tmp_path, job_id, lines):
        """Finish ``job_id`` on a service over a journal of ``lines``."""
        store = tmp_path / "store"
        store.mkdir()
        (store / "jobs.jsonl").write_text("".join(lines), encoding="utf-8")
        with RuntimeService(str(store)) as revived:
            job = revived.job(job_id)
            counts = job.result(timeout=60).get_counts()
            assert job.status() == "DONE"
            return counts, job.provider_job.fault_stats["resumed_chunks"]

    @pytest.mark.parametrize("kept", range(CHUNKS + 1))
    def test_cut_journal_resumes_bit_identically(self, tmp_path, finished,
                                                 kept):
        job_id, lines, counts = finished
        running, chunks = self._points(lines)
        cut = (chunks[kept - 1] if kept else running) + 1
        assert "result" not in {json.loads(line)["type"]
                                for line in lines[:cut]}
        assert self._restart(tmp_path, job_id, lines[:cut]) == (counts, kept)

    def test_older_journal_with_a_header_record_resumes(self, tmp_path,
                                                        finished):
        # Journals written before the job record was the checkpoint hold
        # a ``header`` record after RUNNING; replay skips it.
        job_id, lines, counts = finished
        running, chunks = self._points(lines)
        header = json.dumps({
            "type": "header", "version": 1, "job_id": job_id,
            "backend": ["aer", "qasm_simulator"], "plan": [],
            "payloads": "",
        }) + "\n"
        old = lines[:running + 1] + [header] + lines[running + 1:chunks[0] + 1]
        assert self._restart(tmp_path, job_id, old) == (counts, 1)
