"""Shot-chunk streaming: layout, merge, bit-identity, cancel, ledger.

A shot-chunk is one dispatched payload, and only experiments whose
backend pays per shot split into them: qasm (and the simulated devices)
under gate noise, DD and stabilizer circuits.  The chunked qasm jobs
here run a Bell under :func:`_noise`, a small gate-noise model.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.circuit import QuantumCircuit
from repro.providers import (
    Aer,
    Counts,
    ExperimentResult,
    FaultInjector,
    FaultSpec,
    Job,
    RetryPolicy,
    execute,
)
from repro.providers.checkpoint import (
    append_chunk,
    load_ledger,
    write_job,
)
from repro.providers.fake import IBMQ
from repro.providers.result import merge_chunk_outcomes
from repro.qobj import (
    DEFAULT_SHOT_CHUNK_SIZE,
    derive_chunk_seeds,
    derive_experiment_seeds,
    shot_chunk_bounds,
)
from repro.simulators.noise import NoiseModel, depolarizing_error
from repro.simulators.qasm_simulator import QasmSimulator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

EXECUTORS = ["serial", "threads", "processes"]

FAST_RETRY = RetryPolicy(base_delay=0.0)


def _bell(name="bell"):
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.name = name
    return circuit


def _noise():
    """Small depolarizing gate noise: a qasm run under it pays per shot,
    so its shots split into chunk payloads."""
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), ["h"])
    model.add_all_qubit_quantum_error(depolarizing_error(0.02, 2), ["cx"])
    return model


class TestChunkLayout:
    def test_bounds_default_size(self):
        bounds = shot_chunk_bounds(DEFAULT_SHOT_CHUNK_SIZE * 2 + 7)
        assert bounds == [
            (0, DEFAULT_SHOT_CHUNK_SIZE),
            (DEFAULT_SHOT_CHUNK_SIZE, 2 * DEFAULT_SHOT_CHUNK_SIZE),
            (2 * DEFAULT_SHOT_CHUNK_SIZE, 2 * DEFAULT_SHOT_CHUNK_SIZE + 7),
        ]

    def test_bounds_single_chunk(self):
        assert shot_chunk_bounds(100, 256) == [(0, 100)]

    def test_bounds_disabled(self):
        assert shot_chunk_bounds(10_000, 0) == [(0, 10_000)]

    def test_single_chunk_keeps_experiment_seed(self):
        # The backward-compatibility contract: one chunk == the
        # experiment's own seed, so small runs replay the pre-chunking
        # pipeline bit-for-bit.
        assert derive_chunk_seeds(12345, 1) == [12345]

    def test_multi_chunk_seeds_deterministic(self):
        seeds = derive_chunk_seeds(12345, 4)
        assert len(seeds) == 4
        assert len(set(seeds)) == 4
        assert seeds == derive_chunk_seeds(12345, 4)
        assert 12345 not in seeds[1:]


class TestCountsMerge:
    def test_merge_adds_keywise(self):
        merged = Counts.merge([{"00": 3, "11": 5}, {"11": 2, "01": 1}])
        assert merged == {"00": 3, "11": 7, "01": 1}
        assert all(isinstance(v, int) for v in merged.values())

    def test_merge_skips_empty(self):
        assert Counts.merge([{}, {"0": 4}, {}]) == {"0": 4}
        assert Counts.merge([]) == {}

    def test_marginal(self):
        counts = Counts({"10": 6, "01": 3, "11": 1})
        assert counts.marginal([0]) == {"0": 6, "1": 4}
        assert counts.marginal([1]) == {"1": 7, "0": 3}
        assert counts.marginal([0, 1]) == counts


class TestMergeChunkOutcomes:
    @staticmethod
    def _chunk(index, total, counts, status="DONE", **kwargs):
        outcome = ExperimentResult(
            "exp", sum(counts.values()), {"counts": dict(counts)},
            status=status, **kwargs,
        )
        outcome.chunk = {"index": index, "total": total,
                         "start": 0, "stop": outcome.shots}
        return outcome

    def test_merges_counts_and_ledgers(self):
        a = self._chunk(0, 2, {"00": 10, "11": 10}, attempts=2,
                        faults=["transient@0"])
        b = self._chunk(1, 2, {"11": 5, "01": 15})
        merged = merge_chunk_outcomes("exp", [a, b], 2)
        assert merged.status == "DONE"
        assert merged.data["counts"] == {"00": 10, "11": 15, "01": 15}
        assert merged.shots == 40
        assert merged.attempts == 3
        assert merged.faults == ["c0:transient@0"]
        assert merged.chunks == 2
        assert merged.completed_chunks == 2

    def test_missing_chunk_is_incomplete(self):
        merged = merge_chunk_outcomes(
            "exp", [self._chunk(0, 3, {"00": 4})], 3
        )
        assert merged.status == "INCOMPLETE"
        assert merged.completed_chunks == 1
        assert merged.data["counts"] == {"00": 4}

    def test_failed_chunk_wins_over_cancelled(self):
        bad = self._chunk(1, 2, {}, status="ERROR", error="boom")
        merged = merge_chunk_outcomes(
            "exp", [self._chunk(0, 2, {"0": 1}), bad], 2
        )
        assert merged.status == "ERROR"
        assert "chunk 1/2" in merged.error

    def test_single_unchunked_passthrough(self):
        solo = ExperimentResult("exp", 4, {"counts": {"0": 4}})
        assert merge_chunk_outcomes("exp", [solo], 1) is solo


class TestChunkedRetries:
    """Every chunk's first attempt is a run: ``retries`` counts only the
    re-runs, however many chunks an experiment has."""

    @staticmethod
    def _ghz(width):
        circuit = QuantumCircuit(width, width)
        circuit.h(0)
        for qubit in range(width - 1):
            circuit.cx(qubit, qubit + 1)
        for qubit in range(width):
            circuit.measure(qubit, qubit)
        circuit.name = f"ghz{width}"
        return circuit

    def test_fault_free_chunked_job_reports_no_retries(self):
        job = Aer.get_backend("qasm_simulator").run(
            [self._ghz(3), self._ghz(2)], shots=5000, seed=1,
            shot_chunk_size=1000, noise_model=_noise(),
        )
        job.result()
        assert job.fault_stats["attempts"] == 10
        assert job.fault_stats["retries"] == 0

    def test_one_retry_per_faulted_chunk(self):
        injector = FaultInjector([FaultSpec("transient")], seed=CHAOS_SEED)
        job = Aer.get_backend("qasm_simulator").run(
            [_bell()], shots=3000, seed=1, shot_chunk_size=1000,
            noise_model=_noise(), fault_injector=injector,
            retry_policy=FAST_RETRY,
        )
        job.result()
        stats = job.fault_stats
        assert stats["faults_injected"] == 3
        assert stats["attempts"] == 6
        assert stats["retries"] == 3


class TestChunkBitIdentity:
    """The tentpole invariant: one chunk layout, any scheduling."""

    SHOTS = 4000
    CHUNK = 1024

    def _counts(self, executor, **options):
        job = Aer.get_backend("qasm_simulator").run(
            [_bell()], shots=self.SHOTS, seed=99, noise_model=_noise(),
            shot_chunk_size=self.CHUNK, executor=executor, **options,
        )
        return job.result().get_counts()

    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_dispatch_identical_across_executors(self, executor):
        assert self._counts("serial") == self._counts(executor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_chaos_does_not_change_counts(self, executor):
        injector = FaultInjector(
            [FaultSpec("transient", probability=0.6)], seed=CHAOS_SEED
        )
        clean = self._counts("serial")
        chaotic = self._counts(
            executor, fault_injector=injector, retry_policy=FAST_RETRY,
        )
        assert chaotic == clean

    def test_below_chunk_size_matches_unchunked(self):
        backend = Aer.get_backend("qasm_simulator")
        small = backend.run([_bell()], shots=500, seed=5).result()
        off = backend.run(
            [_bell()], shots=500, seed=5, shot_chunk_size=0
        ).result()
        assert small.get_counts() == off.get_counts()

    def test_memory_concatenates_in_chunk_order(self):
        backend = Aer.get_backend("qasm_simulator")
        memories = [
            backend.run(
                [_bell()], shots=self.SHOTS, seed=99, memory=True,
                noise_model=_noise(), shot_chunk_size=self.CHUNK,
                executor=executor,
            ).result().get_memory()
            for executor in ("serial", "threads")
        ]
        assert memories[0] == memories[1]
        # Chunk k's memory is the k-th slice: each chunk run on its own
        # under its derived seed, concatenated in chunk order.
        bounds = shot_chunk_bounds(self.SHOTS, self.CHUNK)
        seeds = derive_chunk_seeds(derive_experiment_seeds(99, 1)[0],
                                   len(bounds))
        expected = []
        for (start, stop), seed in zip(bounds, seeds):
            expected += QasmSimulator().run(
                _bell(), shots=stop - start, seed=seed,
                noise_model=_noise(), memory=True,
            )["memory"]
        assert memories[0] == expected


def _ghz3():
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.measure([0, 1, 2], [0, 1, 2])
    circuit.name = "ghz3"
    return circuit


#: The backends that pay per shot, hence split into chunk payloads.
CHUNKING = ["noisy_qasm", "ibmqx4", "dd", "stabilizer"]


class TestChunkingBackends:
    """Each backend that pays per shot runs one payload per chunk, with
    counts bit-identical on every executor and under a seeded transient
    fault."""

    SHOTS = 3000
    CHUNK = 1024  # -> 3 chunks

    def _job(self, name, executor="serial", **options):
        if name == "ibmqx4":
            backend = IBMQ.get_backend("ibmqx4")
        elif name == "noisy_qasm":
            backend = Aer.get_backend("qasm_simulator")
            options["noise_model"] = _noise()
        else:
            backend = Aer.get_backend(f"{name}_simulator")
        return execute(_bell(), backend, shots=self.SHOTS, seed=CHAOS_SEED,
                       shot_chunk_size=self.CHUNK, executor=executor,
                       **options)

    @pytest.mark.parametrize("name", CHUNKING)
    def test_one_chunk_event_per_chunk(self, name):
        events = list(self._job(name).stream())
        assert [e["type"] for e in events] == ["chunk"] * 3 + ["experiment"]
        assert [e["chunk"] for e in events[:3]] == [0, 1, 2]
        assert [e["shots"] for e in events[:3]] == [1024, 1024, 952]
        assert {e["total_chunks"] for e in events} == {3}

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name", CHUNKING)
    def test_counts_identical_under_chaos(self, name, executor):
        clean = self._job(name).result().get_counts()
        injector = FaultInjector(
            [FaultSpec("transient", probability=0.6)], seed=CHAOS_SEED
        )
        job = self._job(name, executor, fault_injector=injector,
                        retry_policy=FAST_RETRY)
        assert job.result().get_counts() == clean
        assert job.fault_stats["total_chunks"] == 3


class TestOneStateSamplers:
    """Noise-free qasm sampling and the density matrix draw every shot
    from one evolved state: one payload from the experiment's own seed,
    however many shots."""

    SHOTS = DEFAULT_SHOT_CHUNK_SIZE + 1000

    @pytest.mark.parametrize("backend", [
        "qasm_simulator", "density_matrix_simulator",
    ])
    def test_one_payload_above_the_chunk_size(self, backend):
        job = Aer.get_backend(backend).run(_bell(), shots=self.SHOTS,
                                           seed=5)
        events = list(job.stream())
        assert [e["type"] for e in events] == ["chunk", "experiment"]
        assert events[0]["total_chunks"] == 1
        assert job.fault_stats["total_chunks"] == 1
        assert sum(job.result().get_counts().values()) == self.SHOTS

    def test_one_seed_sample(self):
        counts = Aer.get_backend("qasm_simulator").run(
            _bell(), shots=self.SHOTS, seed=5,
        ).result().get_counts()
        assert counts == QasmSimulator().run(
            _bell(), shots=self.SHOTS, seed=derive_experiment_seeds(5, 1)[0]
        )["counts"]


class TestDeviceChunks:
    """The simulated devices split their shots under the noise model
    their run uses, through the qasm backend's own rule."""

    @staticmethod
    def _run(shots=40000, **options):
        return execute(_ghz3(), IBMQ.get_backend("ibmqx4"), shots=shots,
                       seed=3, shot_chunk_size=1024, **options)

    def test_streams_one_event_per_chunk(self):
        job = self._run()
        chunks = [e for e in job.stream() if e["type"] == "chunk"]
        assert len(chunks) == 40
        assert {e["total_chunks"] for e in chunks} == {40}
        assert job.fault_stats["total_chunks"] == 40
        assert sum(job.result().get_counts().values()) == 40000

    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_identical_across_executors(self, executor):
        assert self._run(executor=executor).result().get_counts() == \
            self._run().result().get_counts()

    def test_noise_free_run_is_one_payload(self):
        job = self._run(shots=3000, noise_model=NoiseModel())
        job.result()
        assert job.fault_stats["total_chunks"] == 1

    def test_checkpointed_job_resumes_missing_chunks(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        stream = self._run(shots=3000, checkpoint=path).stream()
        next(stream)
        next(stream)  # two of three chunks persisted, then abandoned
        resumed = Job.resume(path)
        assert resumed.result().get_counts() == \
            self._run(shots=3000).result().get_counts()
        assert resumed.fault_stats["resumed_chunks"] == 2
        assert resumed.fault_stats["total_chunks"] == 3


class TestStreaming:
    SHOTS = 3000
    CHUNK = 1024  # -> 3 chunks

    def _job(self, executor="serial", **options):
        return Aer.get_backend("qasm_simulator").run(
            [_bell()], shots=self.SHOTS, seed=42,
            shot_chunk_size=self.CHUNK, noise_model=_noise(),
            executor=executor, **options,
        )

    def test_chunk_events_then_experiment_event(self):
        job = self._job()
        events = list(job.stream())
        kinds = [event["type"] for event in events]
        assert kinds == ["chunk", "chunk", "chunk", "experiment"]
        assert [e["chunk"] for e in events[:3]] == [0, 1, 2]
        assert all(e["status"] == "DONE" for e in events)
        total = sum(sum(e["counts"].values()) for e in events[:3])
        assert total == self.SHOTS
        merged = events[-1]["result"]
        assert merged.completed_chunks == 3
        assert sum(merged.data["counts"].values()) == self.SHOTS

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_stream_matches_result(self, executor):
        job = self._job(executor)
        events = list(job.stream())
        assert events[-1]["type"] == "experiment"
        assert job.result().get_counts() == \
            Counts(events[-1]["result"].data["counts"])

    def test_result_cached_after_stream(self):
        job = self._job()
        list(job.stream())
        result = job.result()
        assert result.success
        # Streaming again replays the cached result.
        replay = list(job.stream())
        assert [e["type"] for e in replay] == ["experiment"]

    def test_unchunked_job_streams_one_event_pair(self):
        job = Aer.get_backend("qasm_simulator").run(
            [_bell("a"), _bell("b")], shots=64, seed=1,
        )
        events = list(job.stream())
        assert [e["type"] for e in events] == [
            "chunk", "experiment", "chunk", "experiment",
        ]
        assert [e["experiment"] for e in events[::2]] == ["a", "b"]

    def test_unchunked_job_reports_planned_chunks_mid_stream(self):
        """Every job has a plan, so an unchunked job knows its layout
        before it finishes: one chunk per experiment."""
        job = Aer.get_backend("qasm_simulator").run(
            [_bell("a"), _bell("b"), _bell("c")], shots=64, seed=1,
            executor="serial",
        )
        stream = job.stream()
        assert next(stream)["type"] == "chunk"
        stats = job.fault_stats
        assert stats["total_chunks"] == 3
        assert stats["completed_chunks"] == 1
        list(stream)
        assert job.fault_stats["total_chunks"] == 3
        assert job.fault_stats["completed_chunks"] == 3

    def test_multi_experiment_stream_interleaves(self):
        job = Aer.get_backend("qasm_simulator").run(
            [_bell("a"), _bell("b")], shots=self.SHOTS, seed=42,
            shot_chunk_size=self.CHUNK, noise_model=_noise(),
            executor="serial",
        )
        events = list(job.stream())
        experiment_events = [e for e in events if e["type"] == "experiment"]
        assert [e["experiment"] for e in experiment_events] == ["a", "b"]
        assert len([e for e in events if e["type"] == "chunk"]) == 6
        assert job.result().success


def _is_subsequence(part, whole) -> bool:
    remaining = iter(whole)
    return all(entry in remaining for entry in part)


class TestOneOutcomeTable:
    """``fault_stats`` is aggregated from the dispatch's units before
    collection and after it alike, so every ledger read while a job
    streams already holds each finished unit's collected entries."""

    #: Two of the three chunks take a transient fault, drawn per seed.
    FAULTED = sorted(random.Random(CHAOS_SEED).sample(range(3), 2))

    def _jobs(self, executor):
        """A gate-noisy Bell in three chunks, and an unchunked noise-free
        sibling whose one unit counts as chunk 0."""
        backend = Aer.get_backend("qasm_simulator")
        options = {"shots": 3000, "seed": CHAOS_SEED, "executor": executor,
                   "retry_policy": FAST_RETRY}
        chunked = backend.run(
            [_bell("chunked")], shot_chunk_size=1000, noise_model=_noise(),
            fault_injector=FaultInjector(
                [FaultSpec("transient", chunks=self.FAULTED)],
                seed=CHAOS_SEED,
            ), **options,
        )
        sibling = backend.run(
            [_bell("plain")], fault_injector=FaultInjector(
                [FaultSpec("transient")], seed=CHAOS_SEED,
            ), **options,
        )
        return chunked, sibling

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_streamed_ledgers_are_the_collected_ledger(self, executor):
        chunked, sibling = self._jobs(executor)
        for job in (chunked, sibling):
            seen = [job.fault_stats for _event in job.stream()]
            job.result()
            collected = job.fault_stats
            assert seen[-1] == collected
            for stats in seen:
                assert stats["total_chunks"] == collected["total_chunks"]
                for name, entry in stats["per_experiment"].items():
                    final = collected["per_experiment"][name]
                    assert _is_subsequence(entry["faults"], final["faults"])
                    assert entry["attempts"] <= final["attempts"]
        assert chunked.fault_stats["per_experiment"]["chunked"]["faults"] \
            == [f"c{chunk}:transient@0" for chunk in self.FAULTED]
        assert chunked.fault_stats["retries"] == 2
        assert sibling.fault_stats["per_experiment"]["plain"]["faults"] \
            == ["transient@0"]


class TestCancelDuringStream:
    SHOTS = 3000
    CHUNK = 1024

    def _job(self):
        return Aer.get_backend("qasm_simulator").run(
            [_bell()], shots=self.SHOTS, seed=42,
            shot_chunk_size=self.CHUNK, noise_model=_noise(),
            executor="serial",
        )

    def test_cancel_keeps_delivered_chunks(self):
        job = self._job()
        stream = job.stream()
        first = next(stream)
        assert first["type"] == "chunk" and first["chunk"] == 0
        assert job.cancel() is True
        assert list(stream) == []  # ends without further chunks
        result = job.result(partial=True)
        merged = result.results[0]
        assert merged.status == "CANCELLED"
        assert sum(merged.data["counts"].values()) == self.CHUNK
        assert merged.completed_chunks == 1

    def test_cancel_is_exactly_once(self):
        job = self._job()
        stream = job.stream()
        next(stream)
        assert job.cancel() is True
        assert job.cancel() is False

    def test_cancelled_fault_stats_report_chunk_progress(self):
        job = self._job()
        stream = job.stream()
        next(stream)
        next(stream)
        job.cancel()
        list(stream)
        stats = job.fault_stats
        assert stats["total_chunks"] == 3
        assert stats["completed_chunks"] == 2


def _write_job(path, job_id, options=None):
    write_job(path, job_id, ("aer", "qasm_simulator"), [_bell()],
              options or {"shots": 8, "seed": 7})


class TestCheckpointLedger:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        _write_job(path, "job-1", {"shots": 8, "seed": 7,
                                   "checkpoint": path})
        outcome = ExperimentResult("exp", 8, {"counts": {"00": 8}})
        append_chunk(path, "job-1", 0, 0, outcome)
        job, chunks = load_ledger(path)
        assert job["job_id"] == "job-1"
        assert job["backend"] == ["aer", "qasm_simulator"]
        # The checkpoint path belongs to the run, not to the job.
        assert job["payload"] == ([_bell()], {"shots": 8, "seed": 7})
        restored = chunks[(0, 0)]
        assert restored.circuit_name == "exp"
        assert restored.data["counts"] == {"00": 8}

    def test_duplicate_chunk_records_keep_first(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        _write_job(path, "job-1")
        append_chunk(path, "job-1", 0, 0,
                     ExperimentResult("exp", 1, {"counts": {"0": 1}}))
        append_chunk(path, "job-1", 0, 0,
                     ExperimentResult("exp", 1, {"counts": {"1": 1}}))
        _job, chunks = load_ledger(path)
        assert chunks[(0, 0)].data["counts"] == {"0": 1}

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        _write_job(path, "job-1")
        append_chunk(path, "job-1", 0, 1,
                     ExperimentResult("exp", 1, {"counts": {"0": 1}}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "chunk", "experiment": 0, "chu')
        _job, chunks = load_ledger(path)
        assert set(chunks) == {(0, 1)}

    def test_new_job_record_appends_and_the_latest_wins(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        _write_job(path, "job-1")
        append_chunk(path, "job-1", 0, 0,
                     ExperimentResult("exp", 1, {"counts": {"0": 1}}))
        _write_job(path, "job-2")
        append_chunk(path, "job-2", 0, 1,
                     ExperimentResult("exp", 1, {"counts": {"1": 1}}))
        job, chunks = load_ledger(path)
        assert job["job_id"] == "job-2"
        assert set(chunks) == {(0, 1)}
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 4  # nothing truncated

    def test_job_record_clears_the_checkpoint(self, tmp_path):
        # A runtime requeue appends a fresh ``job`` record: the stale
        # chunks before it must never be resumed.
        path = str(tmp_path / "ledger.jsonl")
        _write_job(path, "rt-1")
        append_chunk(path, "rt-1", 0, 0,
                     ExperimentResult("exp", 1, {"counts": {"0": 1}}))
        _write_job(path, "rt-1")
        append_chunk(path, "rt-1", 0, 1,
                     ExperimentResult("exp", 1, {"counts": {"1": 1}}))
        _job, chunks = load_ledger(path)
        assert set(chunks) == {(0, 1)}

    def test_header_records_are_skipped(self, tmp_path):
        # Journals written before the job record was the checkpoint hold
        # ``header`` records: replay skips them, and a ledger with only
        # headers has no job to resume.
        from repro.exceptions import BackendError
        from repro.providers.journal import Journal

        path = str(tmp_path / "ledger.jsonl")
        header = {"type": "header", "version": 1, "job_id": "job-0",
                  "backend": ["aer", "qasm_simulator"], "plan": [],
                  "payloads": ""}
        Journal(path).append(header)
        append_chunk(path, "job-0", 0, 0,
                     ExperimentResult("exp", 1, {"counts": {"0": 1}}))
        with pytest.raises(BackendError, match="no job record"):
            Job.resume(path)
        _write_job(path, "job-1")
        Journal(path).append(dict(header, job_id="job-1"))
        append_chunk(path, "job-1", 0, 0,
                     ExperimentResult("exp", 1, {"counts": {"1": 1}}))
        job, chunks = load_ledger(path)
        assert job["job_id"] == "job-1"
        assert chunks[(0, 0)].data["counts"] == {"1": 1}

    def test_non_done_records_are_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        _write_job(path, "job-1")
        failed = ExperimentResult("exp", 0, {}, status="ERROR",
                                  error="boom")
        append_chunk(path, "job-1", 0, 0, failed)
        _job, chunks = load_ledger(path)
        assert chunks == {}

    def test_checkpointed_job_appends_every_chunk(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        job = Aer.get_backend("qasm_simulator").run(
            [_bell()], shots=3000, seed=42, shot_chunk_size=1024,
            noise_model=_noise(), executor="serial", checkpoint=path,
        )
        reference = job.result().get_counts()
        _header, chunks = load_ledger(path)
        assert set(chunks) == {(0, 0), (0, 1), (0, 2)}
        merged = Counts.merge(
            [chunks[key].data["counts"] for key in sorted(chunks)]
        )
        assert merged == reference

    def test_resume_requires_ledger(self, tmp_path):
        from repro.exceptions import BackendError

        with pytest.raises(BackendError):
            Job.resume(str(tmp_path / "missing.jsonl"))
