"""Tests for the execution pipeline: scheduling, determinism, isolation.

The contract under test (paper Sec. IV, the Qobj/job model): a seeded
batch must produce bit-identical Results no matter which executor runs
it, one failing experiment must not poison its siblings, and the Job
state machine must be observable from the outside.
"""

import os

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.random_circuit import random_circuit
from repro.exceptions import BackendError
from repro.providers import Aer, JobStatus
from repro.providers.executor import Dispatch, resolve_executor
from repro.qobj import assemble, derive_experiment_seeds
from repro.simulators.noise import NoiseModel, depolarizing_error

EXECUTORS = ["serial", "threads", "processes"]

#: The CI chaos job sweeps this seed (three fixed values, blocking); it
#: draws the randomized bit-identity batch.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))


def _gate_noise():
    """Small depolarizing noise on every gate ``random_circuit`` draws,
    so a qasm run under it splits into shot-chunk payloads."""
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), [
        "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1",
    ])
    model.add_all_qubit_quantum_error(depolarizing_error(0.02, 2), [
        "cx", "cz", "swap", "crz", "cu1", "rzz",
    ])
    return model


def _ghz(num_qubits, measure=True, name=None):
    circuit = QuantumCircuit(num_qubits, num_qubits if measure else 0)
    circuit.h(0)
    for i in range(num_qubits - 1):
        circuit.cx(i, i + 1)
    if measure:
        for i in range(num_qubits):
            circuit.measure(i, i)
    if name is not None:
        circuit.name = name
    return circuit


def _batch(size, num_qubits=3, measure=True):
    return [
        _ghz(num_qubits, measure=measure, name=f"exp-{i}") for i in range(size)
    ]


def _array(value):
    """Comparable ndarray from Statevector/Operator/DensityMatrix/ndarray."""
    return np.asarray(getattr(value, "data", value))


def _snapshot(result, circuits):
    """Executor-independent view of a Result for bit-identity comparison."""
    snap = []
    for circuit in circuits:
        data = result.data(circuit.name)
        entry = {}
        for key, value in sorted(data.items()):
            if isinstance(value, dict):
                entry[key] = dict(value)
            elif isinstance(value, list):
                entry[key] = list(value)
            elif np.ndim(_array(value)) > 0:
                entry[key] = _array(value).tolist()
            else:
                entry[key] = value
        snap.append(entry)
    return snap


class TestChooseExecutor:
    """The ``executor`` option picks the dispatch's executor kind."""

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_explicit_request_wins(self, kind, measured_bell):
        assert resolve_executor(kind) == kind
        job = Aer.get_backend("qasm_simulator").run(
            measured_bell, shots=10, seed=1, executor=kind
        )
        assert job._dispatch.kind == kind
        assert sum(job.result().get_counts().values()) == 10

    def test_unknown_executor_rejected(self, measured_bell):
        with pytest.raises(BackendError, match="unknown executor"):
            resolve_executor("quantum")
        with pytest.raises(BackendError, match="unknown executor"):
            Aer.get_backend("qasm_simulator").run(measured_bell,
                                                  executor="quantum")

    @pytest.mark.parametrize("requested", [None, "auto"])
    def test_auto_means_serial(self, requested):
        """Even the wide multi-circuit batches that once went to a
        process pool run serially unless a pool is asked for."""
        assert resolve_executor(requested) == "serial"
        job = Aer.get_backend("qasm_simulator").run(
            _batch(4, num_qubits=12), shots=16, seed=1, executor=requested
        )
        assert job._dispatch.kind == "serial"
        assert job.status() == JobStatus.INITIALIZING
        assert job.result().success


class TestEmptyDispatch:
    """A dispatch with no payloads is DONE from construction on every
    executor."""

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_done_at_construction(self, kind):
        dispatch = Dispatch(Aer.get_backend("qasm_simulator"), [], kind)
        assert dispatch.status() == JobStatus.DONE
        assert list(dispatch.iter_outcomes()) == []
        assert dispatch.collect(timeout=0) == []
        assert dispatch.cancel() is False
        assert dispatch.fallbacks == []


class TestSeedDerivation:
    def test_none_seed_stays_none(self):
        assert derive_experiment_seeds(None, 3) == [None, None, None]

    def test_deterministic_and_distinct(self):
        first = derive_experiment_seeds(42, 8)
        second = derive_experiment_seeds(42, 8)
        assert first == second
        assert len(set(first)) == 8
        assert derive_experiment_seeds(43, 8) != first

    def test_assemble_stamps_per_experiment_seeds(self):
        qobj = assemble(_batch(4), shots=16, seed=7)
        stamped = [exp["config"]["seed"] for exp in qobj["experiments"]]
        assert stamped == derive_experiment_seeds(7, 4)
        assert qobj["config"]["seed"] == 7


class TestBitIdenticalAcrossExecutors:
    """Same seeded batch, three executors, byte-for-byte equal Results."""

    def _run_all(self, backend_name, circuits, **options):
        snapshots = {}
        seeds = {}
        for kind in EXECUTORS:
            backend = Aer.get_backend(backend_name)
            result = backend.run(
                list(circuits), executor=kind, **options
            ).result()
            assert result.success
            snapshots[kind] = _snapshot(result, circuits)
            seeds[kind] = [exp.seed for exp in result.results]
        return snapshots, seeds

    @pytest.mark.parametrize("backend_name", [
        "qasm_simulator",
        "density_matrix_simulator",
        "stabilizer_simulator",
        "dd_simulator",
    ])
    def test_sampling_backends(self, backend_name):
        snapshots, seeds = self._run_all(
            backend_name, _batch(5), shots=128, seed=11
        )
        assert snapshots["serial"] == snapshots["threads"]
        assert snapshots["serial"] == snapshots["processes"]
        assert seeds["serial"] == seeds["threads"] == seeds["processes"]
        # Sibling experiments use derived (distinct) seeds, not the batch's.
        assert len(set(seeds["serial"])) == 5

    def test_qasm_memory_bit_identical(self):
        """Per-shot memory (not just histograms) matches across executors."""
        circuits = _batch(4)
        snapshots, _seeds = self._run_all(
            "qasm_simulator", circuits, shots=64, seed=3, memory=True
        )
        for circuit in circuits:
            reference = None
            for kind in EXECUTORS:
                index = circuits.index(circuit)
                memory = snapshots[kind][index]["memory"]
                assert len(memory) == 64
                if reference is None:
                    reference = memory
                assert memory == reference

    @pytest.mark.parametrize("chunking", [
        {},
        {"shot_chunk_size": 32, "noise_model": _gate_noise()},
    ], ids=["plain", "chunked"])
    def test_random_circuits(self, chunking):
        """A seeded random batch — drawn from ``CHAOS_SEED`` — matches
        across executors, plain and, under gate noise, split into
        dispatched shot-chunks."""
        circuits = []
        for index in range(4):
            circuit = random_circuit(3 + index % 3, 6,
                                     seed=CHAOS_SEED * 100 + index,
                                     measure=True)
            circuit.name = f"random-{index}"
            circuits.append(circuit)
        snapshots, seeds = self._run_all(
            "qasm_simulator", circuits, shots=96, seed=CHAOS_SEED,
            **chunking
        )
        assert snapshots["serial"] == snapshots["threads"]
        assert snapshots["serial"] == snapshots["processes"]
        assert seeds["serial"] == seeds["threads"] == seeds["processes"]
        for entry in snapshots["serial"]:
            assert sum(entry["counts"].values()) == 96
        planned = Aer.get_backend("qasm_simulator").run(
            circuits, shots=96, seed=CHAOS_SEED, **chunking
        ).fault_stats["total_chunks"]
        assert planned == (12 if chunking else 4)

    @pytest.mark.parametrize("backend_name,key", [
        ("statevector_simulator", "statevector"),
        ("unitary_simulator", "unitary"),
    ])
    def test_pure_state_backends(self, backend_name, key):
        circuits = _batch(3, measure=False)
        snapshots, _seeds = self._run_all(backend_name, circuits)
        for index in range(len(circuits)):
            serial = snapshots["serial"][index][key]
            assert snapshots["threads"][index][key] == serial
            assert snapshots["processes"][index][key] == serial


class TestFailureIsolation:
    """One bad experiment must not abort or perturb its siblings."""

    def _mixed_batch(self):
        good_one = _ghz(2, name="good-one")
        bad = QuantumCircuit(2, name="bad")  # no clbits: qasm sim rejects it
        bad.h(0)
        good_two = _ghz(3, name="good-two")
        return [good_one, bad, good_two]

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_siblings_survive(self, kind):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(self._mixed_batch(), shots=100, seed=9,
                          executor=kind)
        result = job.result()
        assert not result.success
        assert job.status() == JobStatus.ERROR
        assert sum(result.get_counts("good-one").values()) == 100
        assert sum(result.get_counts("good-two").values()) == 100
        with pytest.raises(BackendError, match="'bad' failed"):
            result.get_counts("bad")

    def test_failed_experiment_carries_metadata(self):
        backend = Aer.get_backend("qasm_simulator")
        result = backend.run(self._mixed_batch(), shots=100, seed=9).result()
        failed = [exp for exp in result.results if not exp.success]
        assert len(failed) == 1
        assert failed[0].circuit_name == "bad"
        assert failed[0].status == JobStatus.ERROR
        assert "classical bits" in failed[0].error
        assert failed[0].time_taken is not None

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_good_results_unperturbed_by_sibling_failure(self, kind):
        """A surviving experiment's counts match an all-good batch.

        Derived seeds are positional (a prefix of the batch seed's
        stream), so experiment 0 gets the same seed in both batches.
        """
        backend = Aer.get_backend("qasm_simulator")
        mixed = backend.run(self._mixed_batch(), shots=100, seed=9,
                            executor=kind).result()
        engine_seed = derive_experiment_seeds(9, 3)[0]
        from repro.simulators.qasm_simulator import QasmSimulator

        direct = QasmSimulator().run(_ghz(2), shots=100, seed=engine_seed)
        assert dict(mixed.get_counts("good-one")) == direct["counts"]


class TestJobLifecycle:
    def test_serial_is_lazy(self, measured_bell):
        job = Aer.get_backend("qasm_simulator").run(
            measured_bell, shots=10, seed=1, executor="serial"
        )
        assert job.status() == JobStatus.INITIALIZING
        job.result()
        assert job.status() == JobStatus.DONE

    def test_pool_reaches_done(self, measured_bell):
        job = Aer.get_backend("qasm_simulator").run(
            [measured_bell], shots=10, seed=1, executor="threads"
        )
        assert job.status() in (JobStatus.RUNNING, JobStatus.DONE)
        job.result()
        assert job.status() == JobStatus.DONE

    def test_cancel_before_run(self, measured_bell):
        job = Aer.get_backend("qasm_simulator").run(
            measured_bell, shots=10, seed=1, executor="serial"
        )
        assert job.cancel()
        assert job.status() == JobStatus.CANCELLED
        with pytest.raises(BackendError, match="cancelled"):
            job.result()

    def test_cancel_after_done_is_noop(self, measured_bell):
        job = Aer.get_backend("qasm_simulator").run(
            measured_bell, shots=10, seed=1, executor="serial"
        )
        job.result()
        assert not job.cancel()
        assert job.status() == JobStatus.DONE

    def test_job_ids_unique_and_shared_with_result(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        jobs = [backend.run(measured_bell, shots=10, seed=1)
                for _ in range(3)]
        ids = [job.job_id for job in jobs]
        assert len(set(ids)) == 3
        numbers = [int(job_id.split("-")[1]) for job_id in ids]
        assert numbers == sorted(numbers)
        for job in jobs:
            assert job.result().job_id == job.job_id

    def test_per_experiment_timing(self, measured_bell):
        result = Aer.get_backend("qasm_simulator").run(
            [measured_bell, _ghz(3)], shots=50, seed=2
        ).result()
        for experiment in result.results:
            assert experiment.time_taken is not None
            assert experiment.time_taken >= 0

    def test_spec_less_backend_degrades_processes_to_threads(
            self, measured_bell):
        """Backends without a registry spec cannot be rebuilt in a worker
        process; the dispatch quietly falls back to threads."""
        backend = Aer.get_backend("qasm_simulator")
        backend._backend_spec = lambda: None
        job = backend.run(measured_bell, shots=10, seed=1,
                          executor="processes")
        assert job._dispatch.kind == "threads"
        assert sum(job.result().get_counts().values()) == 10

    def test_device_backend_validates_at_submission(self):
        """Fake-device batches fail fast with BackendError, not as
        per-experiment ERROR entries."""
        from repro.providers import IBMQ

        circuit = QuantumCircuit(2, 2)
        circuit.h(0)  # 'h' is not in the device basis -> must transpile
        circuit.measure(0, 0)
        with pytest.raises(BackendError, match="transpile"):
            IBMQ.get_backend("ibmqx4").run(circuit)


class TestPipelineConsumers:
    """Batched callers ride the same pipeline with pinned executors."""

    def test_tomography_executor_pinning_is_deterministic(self, bell):
        from repro.ignis.tomography import run_state_tomography

        serial = run_state_tomography(bell, shots=256, seed=5,
                                      executor="serial")
        threads = run_state_tomography(bell, shots=256, seed=5,
                                       executor="threads")
        assert np.array_equal(serial.data, threads.data)

    def test_rb_executor_pinning_is_deterministic(self):
        from repro.ignis.rb import rb_experiment

        _lengths, serial = rb_experiment([1, 4], num_samples=2, shots=64,
                                         seed=8, executor="serial")
        _lengths, threads = rb_experiment([1, 4], num_samples=2, shots=64,
                                          seed=8, executor="threads")
        assert serial == threads
