"""Tests for the shot-based qasm simulator."""

import numpy as np
import pytest

from repro.circuit import (
    ClassicalRegister,
    QuantumCircuit,
    QuantumRegister,
    random_circuit,
)
from repro.exceptions import SimulatorError
from repro.quantum_info import hellinger_fidelity
from repro.simulators import QasmSimulator


@pytest.fixture
def engine():
    return QasmSimulator()


class TestSamplingPath:
    def test_bell_counts(self, engine, measured_bell):
        result = engine.run(measured_bell, shots=2000, seed=1)
        counts = result["counts"]
        assert set(counts) == {"00", "11"}
        assert abs(counts["00"] - 1000) < 150

    def test_deterministic_seed(self, engine, measured_bell):
        a = engine.run(measured_bell, shots=500, seed=9)["counts"]
        b = engine.run(measured_bell, shots=500, seed=9)["counts"]
        assert a == b

    def test_partial_measurement(self, engine):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(1, 0)
        counts = engine.run(circuit, shots=1000, seed=2)["counts"]
        assert set(counts) == {"0", "1"}

    def test_unmeasured_clbits_zero(self, engine):
        circuit = QuantumCircuit(1, 3)
        circuit.x(0)
        circuit.measure(0, 1)
        counts = engine.run(circuit, shots=10, seed=3)["counts"]
        assert counts == {"010": 10}

    def test_memory(self, engine, measured_bell):
        result = engine.run(measured_bell, shots=50, seed=4, memory=True)
        memory = result["memory"]
        assert len(memory) == 50
        assert set(memory) <= {"00", "11"}
        rebuilt = {}
        for shot in memory:
            rebuilt[shot] = rebuilt.get(shot, 0) + 1
        assert rebuilt == result["counts"]

    def test_deterministic_circuit(self, engine):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        assert engine.run(circuit, shots=100, seed=5)["counts"] == {"01": 100}


class TestTrajectoryPath:
    def test_mid_circuit_measure(self, engine):
        # Measure then reuse: must use trajectories and still be correct.
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(0)
        circuit.measure(0, 1)
        counts = engine.run(circuit, shots=400, seed=6)["counts"]
        # second bit is always NOT of the first.
        assert set(counts) <= {"10", "01"}

    def test_reset(self, engine):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.reset(0)
        circuit.measure(0, 0)
        counts = engine.run(circuit, shots=300, seed=7)["counts"]
        assert counts == {"0": 300}

    def test_conditional_gate(self, engine):
        qreg = QuantumRegister(2, "q")
        creg = ClassicalRegister(1, "c")
        out = ClassicalRegister(1, "d")
        circuit = QuantumCircuit(qreg, creg, out)
        circuit.x(0)
        circuit.measure(0, creg[0])
        circuit.x(1)
        circuit.data[-1].operation.c_if(creg, 1)
        circuit.measure(1, out[0])
        counts = engine.run(circuit, shots=100, seed=8)["counts"]
        assert counts == {"11": 100}

    def test_conditional_not_taken(self, engine):
        qreg = QuantumRegister(2, "q")
        creg = ClassicalRegister(1, "c")
        out = ClassicalRegister(1, "d")
        circuit = QuantumCircuit(qreg, creg, out)
        circuit.measure(0, creg[0])  # always 0
        circuit.x(1)
        circuit.data[-1].operation.c_if(creg, 1)
        circuit.measure(1, out[0])
        counts = engine.run(circuit, shots=100, seed=9)["counts"]
        assert counts == {"00": 100}

    def test_teleportation(self, engine):
        """Full quantum teleportation with classically-controlled fix-up."""
        qreg = QuantumRegister(3, "q")
        c0 = ClassicalRegister(1, "c0")
        c1 = ClassicalRegister(1, "c1")
        result_reg = ClassicalRegister(1, "res")
        circuit = QuantumCircuit(qreg, c0, c1, result_reg)
        # Prepare the payload |1> on q0.
        circuit.x(0)
        # Bell pair on q1, q2.
        circuit.h(1)
        circuit.cx(1, 2)
        # Bell measurement of q0, q1.
        circuit.cx(0, 1)
        circuit.h(0)
        circuit.measure(0, c0[0])
        circuit.measure(1, c1[0])
        # Conditional fix-up on q2.
        circuit.x(2)
        circuit.data[-1].operation.c_if(c1, 1)
        circuit.z(2)
        circuit.data[-1].operation.c_if(c0, 1)
        circuit.measure(2, result_reg[0])
        counts = engine.run(circuit, shots=400, seed=10)["counts"]
        # result bit (clbit 2) must always be 1.
        assert all(key[0] == "1" for key in counts)

    def test_trajectory_matches_sampling(self, engine):
        """The two strategies agree statistically on an ideal circuit."""
        circuit = random_circuit(3, 4, seed=21, measure=True)
        sampled = engine.run(circuit, shots=4000, seed=11)["counts"]
        # Force trajectories by adding a harmless reset on a fresh qubit.
        forced = QuantumCircuit(4, 3)
        forced.compose(circuit, qubits=forced.qubits[:3],
                       clbits=forced.clbits, inplace=True)
        forced.reset(3)
        trajectory = engine.run(forced, shots=4000, seed=12)["counts"]
        assert hellinger_fidelity(sampled, trajectory) > 0.99


class TestWideClassicalRegisters:
    def test_more_than_63_clbits(self, engine):
        """Registers past the int64 shift limit keep their high bits."""
        circuit = QuantumCircuit(2, 70)
        circuit.x(0)
        circuit.x(1)
        circuit.measure(0, 65)
        circuit.measure(1, 69)
        result = engine.run(circuit, shots=16, seed=1, memory=True)
        (key,) = result["counts"]
        assert len(key) == 70
        assert result["counts"][key] == 16
        # clbit 69 and clbit 65 set; bitstrings print clbit 0 rightmost.
        ones = {len(key) - 1 - i for i, ch in enumerate(key) if ch == "1"}
        assert ones == {65, 69}
        assert result["memory"] == [key] * 16


class TestValidation:
    def test_no_clbits_raises(self, engine, bell):
        with pytest.raises(SimulatorError):
            engine.run(bell)

    def test_zero_shots_raises(self, engine, measured_bell):
        with pytest.raises(SimulatorError):
            engine.run(measured_bell, shots=0)

    def test_qubit_limit(self, measured_bell):
        with pytest.raises(SimulatorError):
            QasmSimulator(max_qubits=1).run(measured_bell)
