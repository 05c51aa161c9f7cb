"""Provider-level PUB execution: one experiment per chunk, all executors."""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulators.batched as batched
from repro.algorithms.ansatz import ry_ansatz, ryrz_ansatz
from repro.algorithms.expectation import ExpectationEstimator
from repro.circuit import ClassicalRegister, Parameter
from repro.exceptions import (
    BackendError,
    CircuitError,
    CorruptedResultError,
)
from repro.providers.aer import Aer
from repro.providers.executor import validate_outcome
from repro.providers.faults import FaultSpec
from repro.providers.result import ExperimentResult
from repro.qobj.assembler import (
    circuit_to_experiment,
    derive_experiment_seeds,
)
from repro.quantum_info.pauli import PauliSumOp
from repro.simulators.statevector_simulator import StatevectorSimulator

SEED = 20260809


@pytest.fixture(scope="module")
def sampler_setup():
    form = ryrz_ansatz(4, reps=1)
    measured = form.circuit.copy()
    measured.add_register(ClassicalRegister(4, "c"))
    for q in range(4):
        measured.measure(q, q)
    rng = np.random.default_rng(2)
    values = rng.uniform(-np.pi, np.pi, size=(6, form.num_parameters))
    backend = Aer.get_backend("qasm_simulator")
    bound = [
        measured.bind_parameters(dict(zip(form.parameters, row)))
        for row in values
    ]
    reference = backend.run(bound, shots=300, seed=SEED).result()
    counts = [reference.results[i].data["counts"] for i in range(6)]
    return measured, form.parameters, values, counts


@pytest.fixture(scope="module")
def estimator_setup():
    hamiltonian = PauliSumOp.from_dict({
        "ZZII": 0.7, "IZZI": -0.4, "XIII": 0.3, "IIII": 1.1,
    })
    form = ry_ansatz(4, reps=1)
    rng = np.random.default_rng(4)
    values = rng.uniform(-np.pi, np.pi, size=(5, form.num_parameters))
    seeds = derive_experiment_seeds(SEED, 5)
    energies = []
    for row, seed in zip(values, seeds):
        bound = form.circuit.bind_parameters(
            dict(zip(form.parameters, row))
        )
        estimator = ExpectationEstimator(
            hamiltonian, mode="shots", shots=400, seed=seed
        )
        energies.append(estimator.estimate(bound))
    return form.circuit, form.parameters, values, hamiltonian, energies


class TestSymbolicAssembly:
    def test_unbound_circuit_is_refused(self):
        # A Qobj carries numbers only: pub templates ride as circuits.
        form = ryrz_ansatz(3, reps=1)
        with pytest.raises(CircuitError, match="unbound parameters"):
            circuit_to_experiment(form.circuit)

    def test_bound_circuits_still_serialize_floats(self):
        form = ry_ansatz(2, reps=1)
        bound = form.bind(np.zeros(form.num_parameters))
        experiment = circuit_to_experiment(bound)
        for entry in experiment["instructions"]:
            for param in entry.get("params", []):
                assert isinstance(param, float)


class TestRunPubsSampler:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_counts_match_bound_loop(self, executor, sampler_setup):
        measured, parameters, values, expected = sampler_setup
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run_pubs(
            [(measured, values, parameters)],
            shots=300, seed=SEED, executor=executor,
        )
        result = job.result()
        assert result.success
        rows = result.results[0].data["broadcast_counts"]
        assert [row["counts"] for row in rows] == expected

    def test_shot_chunk_size_matches_run(self, sampler_setup):
        # A pub draws each binding's shots in run()'s shot-chunk layout,
        # including a caller's shot_chunk_size.
        measured, parameters, values, _ = sampler_setup
        backend = Aer.get_backend("qasm_simulator")
        bound = [
            measured.bind_parameters(dict(zip(parameters, row)))
            for row in values
        ]
        reference = backend.run(bound, shots=300, seed=SEED,
                                shot_chunk_size=128).result()
        job = backend.run_pubs([(measured, values, parameters)], shots=300,
                               seed=SEED, shot_chunk_size=128)
        rows = job.result().results[0].data["broadcast_counts"]
        assert [row["counts"] for row in rows] == [
            reference.results[i].data["counts"] for i in range(len(bound))
        ]

    def test_chunked_pub_reassembles_identically(self, sampler_setup,
                                                 monkeypatch):
        measured, parameters, values, expected = sampler_setup
        monkeypatch.setattr(batched, "MAX_BROADCAST_AMPLITUDES", 2 * 16)
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run_pubs(
            [(measured, values, parameters)],
            shots=300, seed=SEED, executor="serial",
        )
        result = job.result()
        assert result.success
        assert len(result.results) == 3  # 6 bindings, 2 per chunk
        rows = []
        for outcome in result.results:
            rows.extend(outcome.data["broadcast_counts"])
        assert [row["counts"] for row in rows] == expected


class TestRunPubsEstimator:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_energies_match_estimator_loop(self, executor, estimator_setup):
        circuit, parameters, values, hamiltonian, expected = estimator_setup
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run_pubs(
            [(circuit, values, parameters, hamiltonian)],
            shots=400, seed=SEED, executor=executor,
        )
        result = job.result()
        assert result.success
        assert result.results[0].data["broadcast_evs"] == expected

    def test_statevector_backend_exact_evs(self, estimator_setup):
        circuit, parameters, values, hamiltonian, _ = estimator_setup
        backend = Aer.get_backend("statevector_simulator")
        job = backend.run_pubs(
            [(circuit, values, parameters, hamiltonian)], seed=SEED
        )
        evs = job.result().results[0].data["broadcast_evs"]
        engine = StatevectorSimulator()
        for row, value in zip(values, evs):
            bound = circuit.bind_parameters(dict(zip(parameters, row)))
            assert value == hamiltonian.expectation(engine.run(bound))

    def test_statevector_backend_broadcast_states(self, estimator_setup):
        circuit, parameters, values, _hamiltonian, _ = estimator_setup
        backend = Aer.get_backend("statevector_simulator")
        job = backend.run_pubs([(circuit, values, parameters)], seed=SEED)
        states = job.result().results[0].data["broadcast_statevectors"]
        engine = StatevectorSimulator()
        for row, state in zip(values, states):
            bound = circuit.bind_parameters(dict(zip(parameters, row)))
            assert state.data.tobytes() == engine.run(bound).data.tobytes()


class TestRunPubsValidation:
    def test_rejects_noise_model(self, sampler_setup):
        measured, parameters, values, _ = sampler_setup
        backend = Aer.get_backend("qasm_simulator")
        with pytest.raises(BackendError, match="noise"):
            backend.run_pubs(
                [(measured, values, parameters)], noise_model=object()
            )

    def test_rejects_checkpoint(self, sampler_setup, tmp_path):
        measured, parameters, values, _ = sampler_setup
        backend = Aer.get_backend("qasm_simulator")
        path = tmp_path / "ledger.jsonl"
        with pytest.raises(BackendError, match="checkpoint"):
            backend.run_pubs([(measured, values, parameters)],
                             checkpoint=str(path))
        assert not path.exists()

    def test_rejects_malformed_pub(self):
        backend = Aer.get_backend("qasm_simulator")
        with pytest.raises(BackendError, match="pub"):
            backend.run_pubs([("not a circuit",)])

    def test_rejects_non_integer_shots(self, sampler_setup):
        measured, parameters, values, _ = sampler_setup
        backend = Aer.get_backend("qasm_simulator")
        with pytest.raises(BackendError, match="shots must be an integer"):
            backend.run_pubs([(measured, values, parameters)], shots=2.5)
        with pytest.raises(BackendError, match="shots must be at least 1"):
            backend.run_pubs([(measured, values, parameters)], shots=0)
        job = backend.run_pubs([(measured, values, parameters)],
                               shots=np.int64(16), seed=3)
        assert job.result().success

    def test_validate_outcome_catches_corrupt_broadcast(self):
        outcome = ExperimentResult(
            "pub", 100,
            {"broadcast_counts": [
                {"counts": {"00": 60, "11": 40}, "shots": 100},
                {"counts": {"00": 99}, "shots": 100},
            ]},
        )
        with pytest.raises(CorruptedResultError, match=r"counts\[1\]"):
            validate_outcome(outcome)


class TestRunPubsChaos:
    @pytest.mark.parametrize("kind", ["transient", "corrupt"])
    def test_retry_recovers_bit_identically(self, kind, sampler_setup):
        measured, parameters, values, expected = sampler_setup
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run_pubs(
            [(measured, values, parameters)],
            shots=300, seed=SEED, executor="serial",
            fault_injector=[FaultSpec(kind)],
        )
        result = job.result()
        assert result.success
        rows = result.results[0].data["broadcast_counts"]
        assert [row["counts"] for row in rows] == expected
        stats = job.fault_stats
        assert stats["attempts"] > stats["experiments"]
        assert stats["faults_injected"] >= 1
