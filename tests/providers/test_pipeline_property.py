"""What an engine runs for a submitted circuit, against the Qobj round trip.

Seeded random batches: each circuit carries a composite block, a unitary
and a diagonal gate, and, where the engine takes conditions, a
conditioned gate and a conditioned composite behind a mid-circuit
measurement.  Every experiment of ``backend.run(batch, seed=s,
memory=True)`` must equal the engine's own run of
``disassemble(assemble([c]))`` under ``derive_experiment_seeds(s, n)[i]``,
bit for bit: the Qobj round trip stays the reference for what a
submitted circuit means.  Shots stay within one shot-chunk, so each
experiment runs under its own derived seed.  Runs under the CHAOS_SEED
sweep in CI: each seed draws other batches (default seed 7).

Two contracts ride along: a circuit edited after ``run`` returns does
not change the job, and a gate that can be neither run nor expanded is
refused at submission.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.circuit import ClassicalRegister, QuantumCircuit, QuantumRegister
from repro.circuit.circuitinstruction import CircuitInstruction
from repro.circuit.library.standard_gates import (
    DiagonalGate,
    HGate,
    UnitaryGate,
    XGate,
)
from repro.circuit.random_circuit import random_circuit
from repro.exceptions import BackendError
from repro.providers import Aer
from repro.providers.fake import IBMQ
from repro.qobj import assemble, derive_experiment_seeds, disassemble
from repro.quantum_info.random import random_unitary
from repro.simulators.dd_simulator import DDSimulator
from repro.simulators.qasm_simulator import QasmSimulator
from repro.simulators.stabilizer_simulator import StabilizerSimulator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z")
CLIFFORD_2Q = ("cx", "cz", "swap")


def _random_clifford(rng, width, size):
    circuit = QuantumCircuit(width)
    for _ in range(size):
        if width >= 2 and rng.random() < 0.35:
            name = CLIFFORD_2Q[rng.integers(len(CLIFFORD_2Q))]
            qubits = rng.choice(width, 2, replace=False)
        else:
            name = CLIFFORD_1Q[rng.integers(len(CLIFFORD_1Q))]
            qubits = [rng.integers(width)]
        getattr(circuit, name)(*(int(q) for q in qubits))
    return circuit


def _pair(rng, width):
    return [int(q) for q in rng.choice(width, 2, replace=False)]


def random_batch(rng, count, *, clifford=False, conditioned=True):
    """``count`` seeded random circuits, each with a composite block
    spliced into a random base, then (unless ``clifford``) a unitary and
    a diagonal gate, then (if ``conditioned``) a flag measured mid-circuit
    that conditions a gate and a composite, and a final measurement of
    every qubit."""
    batch = []
    for index in range(count):
        width = int(rng.integers(2, 6))
        if clifford:
            base = _random_clifford(rng, width, 12)
            block = _random_clifford(rng, 2, 5).to_gate()
        else:
            base = random_circuit(width, 4, seed=int(rng.integers(2**31)))
            block = random_circuit(
                2, 3, seed=int(rng.integers(2**31))
            ).to_gate()
        registers = [QuantumRegister(width, "q"),
                     ClassicalRegister(width, "c")]
        if conditioned:
            flag = ClassicalRegister(1, "flag")
            registers.append(flag)
        circuit = QuantumCircuit(*registers, name=f"random{index}")
        qubits = circuit.qubits
        split = int(rng.integers(len(base.data) + 1))
        for item in base.data[:split]:
            circuit.append(item.operation.copy(),
                           [qubits[base.find_bit(q)] for q in item.qubits])
        circuit.append(block, _pair(rng, width))
        if not clifford:
            circuit.append(
                UnitaryGate(random_unitary(
                    2, seed=int(rng.integers(2**31))
                ).data),
                _pair(rng, width),
            )
            phases = rng.uniform(-np.pi, np.pi, size=4)
            circuit.append(DiagonalGate(np.exp(1j * phases)),
                           _pair(rng, width))
        for item in base.data[split:]:
            circuit.append(item.operation.copy(),
                           [qubits[base.find_bit(q)] for q in item.qubits])
        if conditioned:
            measured, target = _pair(rng, width)
            circuit.measure(measured, flag[0])
            value = int(rng.integers(2))
            gate = XGate() if not clifford else _random_clifford(
                rng, 1, 2
            ).to_gate()
            circuit.append(gate.c_if(flag, value), [target])
            circuit.append(block.copy().c_if(flag, 1 - value),
                           _pair(rng, width))
        circuit.measure(range(width), range(width))
        batch.append(circuit)
    return batch


def _reference(circuit):
    rebuilt, _config = disassemble(assemble([circuit]))
    return rebuilt[0]


def _check(backend, batch, seed, shots, engine_run, **options):
    """Each experiment of the batch equals ``engine_run(rebuilt, seed)``
    on its Qobj round trip under its derived seed."""
    result = backend.run(batch, shots=shots, seed=seed, memory=True,
                         **options).result()
    assert result.success
    seeds = derive_experiment_seeds(seed, len(batch))
    for circuit, outcome, exp_seed in zip(batch, result.results, seeds):
        expected = engine_run(_reference(circuit), exp_seed)
        assert outcome.data["counts"] == expected["counts"], circuit.name
        assert outcome.data.get("memory") == expected.get("memory"), (
            circuit.name
        )


@pytest.mark.parametrize("trial", range(3))
def test_qasm_matches_round_trip(trial):
    rng = np.random.default_rng([CHAOS_SEED, 1, trial])
    batch = random_batch(rng, 3)
    engine = QasmSimulator()
    _check(
        Aer.get_backend("qasm_simulator"), batch, CHAOS_SEED + trial, 300,
        lambda circuit, seed: engine.run(circuit, shots=300, seed=seed,
                                         memory=True),
    )


@pytest.mark.parametrize("trial", range(3))
def test_qasm_under_device_noise_matches_round_trip(trial):
    rng = np.random.default_rng([CHAOS_SEED, 2, trial])
    batch = random_batch(rng, 3)
    noise = IBMQ.get_backend("ibmqx4").noise_model
    engine = QasmSimulator()
    _check(
        Aer.get_backend("qasm_simulator"), batch, CHAOS_SEED + trial, 200,
        lambda circuit, seed: engine.run(circuit, shots=200, seed=seed,
                                         noise_model=noise, memory=True),
        noise_model=noise,
    )


@pytest.mark.parametrize("trial", range(3))
def test_dd_matches_round_trip(trial):
    # The DD walk takes neither conditions nor mid-circuit measurement.
    rng = np.random.default_rng([CHAOS_SEED, 3, trial])
    batch = random_batch(rng, 3, conditioned=False)
    engine = DDSimulator()
    _check(
        Aer.get_backend("dd_simulator"), batch, CHAOS_SEED + trial, 300,
        lambda circuit, seed: {
            "counts": engine.run(circuit).sample_counts(300, seed=seed),
        },
    )


@pytest.mark.parametrize("trial", range(3))
def test_stabilizer_matches_round_trip(trial):
    rng = np.random.default_rng([CHAOS_SEED, 4, trial])
    batch = random_batch(rng, 3, clifford=True)
    engine = StabilizerSimulator()
    _check(
        Aer.get_backend("stabilizer_simulator"), batch, CHAOS_SEED + trial,
        100,
        lambda circuit, seed: engine.run(circuit, shots=100, seed=seed),
    )


class TestPayloadContract:
    @staticmethod
    def _circuit():
        circuit = QuantumCircuit(2, 2, name="edited")
        circuit.ry(0.8, 0)
        circuit.cx(0, 1)
        circuit.measure([0, 1], [0, 1])
        return circuit

    def test_circuit_edited_after_run_does_not_change_the_job(self):
        backend = Aer.get_backend("qasm_simulator")
        circuit = self._circuit()
        job = backend.run(circuit, shots=500, seed=11, executor="serial")
        # The serial executor runs nothing before result(): the job must
        # run the circuit as it was at submission.
        circuit.data[0].operation.params[0] = 2.9
        circuit.data.insert(0, CircuitInstruction(
            XGate(), [circuit.qubits[1]], []
        ))
        circuit.name = "renamed"
        result = job.result()
        reference = backend.run(self._circuit(), shots=500, seed=11).result()
        assert result.results[0].circuit_name == "edited"
        assert result.get_counts("edited") == reference.get_counts("edited")

    def test_gate_without_name_or_definition_is_refused_at_submit(self):
        circuit = QuantumCircuit(3, 3)
        circuit.append(HGate().control(2), [0, 1, 2])
        circuit.measure([0, 1, 2], [0, 1, 2])
        with pytest.raises(BackendError, match="cannot assemble"):
            Aer.get_backend("qasm_simulator").run(circuit, shots=10)
