"""Tests for the statevector and unitary simulators."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, random_circuit
from repro.exceptions import SimulatorError
from repro.quantum_info import Statevector
from repro.simulators import StatevectorSimulator, UnitarySimulator


class TestStatevectorSimulator:
    def test_bell(self, bell):
        state = StatevectorSimulator().run(bell)
        assert state.equiv(np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_initial_state(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        out = StatevectorSimulator().run(
            circuit, initial_state=np.array([0, 1], dtype=complex)
        )
        assert out.data[0] == pytest.approx(1.0)

    def test_initial_state_wrong_dim(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(SimulatorError):
            StatevectorSimulator().run(circuit, initial_state=np.array([1.0, 0]))

    def test_trailing_measure_ignored(self, measured_bell):
        state = StatevectorSimulator().run(measured_bell)
        assert state.equiv(np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_gate_after_measure_rejected(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.h(0)
        with pytest.raises(SimulatorError):
            StatevectorSimulator().run(circuit)

    def test_reset_rejected(self):
        circuit = QuantumCircuit(1)
        circuit.reset(0)
        with pytest.raises(SimulatorError):
            StatevectorSimulator().run(circuit)

    def test_condition_rejected(self):
        from repro.circuit import ClassicalRegister, QuantumRegister

        creg = ClassicalRegister(1, "c")
        circuit = QuantumCircuit(QuantumRegister(1, "q"), creg)
        circuit.x(0)
        circuit.data[-1].operation.c_if(creg, 1)
        with pytest.raises(SimulatorError):
            StatevectorSimulator().run(circuit)

    def test_qubit_limit(self):
        simulator = StatevectorSimulator(max_qubits=2)
        with pytest.raises(SimulatorError):
            simulator.run(QuantumCircuit(3))

    def test_empty_circuit_rejected(self):
        with pytest.raises(SimulatorError):
            StatevectorSimulator().run(QuantumCircuit())

    def test_matches_statevector_class(self, paper_fig1):
        via_engine = StatevectorSimulator().run(paper_fig1)
        via_class = Statevector.from_instruction(paper_fig1)
        assert np.allclose(via_engine.data, via_class.data)


class TestUnitarySimulator:
    def test_identity_empty(self):
        operator = UnitarySimulator().run(QuantumCircuit(2))
        assert np.allclose(operator.data, np.eye(4))

    def test_bell_unitary_times_zero(self, bell):
        operator = UnitarySimulator().run(bell)
        state = operator.data[:, 0]
        assert np.allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5])

    def test_measure_rejected(self, measured_bell):
        with pytest.raises(SimulatorError):
            UnitarySimulator().run(measured_bell)

    def test_qubit_limit(self):
        simulator = UnitarySimulator(max_qubits=3)
        with pytest.raises(SimulatorError):
            simulator.run(QuantumCircuit(4))

    def test_random_circuit_unitary(self):
        circuit = random_circuit(3, 5, seed=17)
        operator = UnitarySimulator().run(circuit)
        assert operator.is_unitary()
        state = StatevectorSimulator().run(circuit)
        assert np.allclose(operator.data[:, 0], state.data)


class TestConditionedGateRefused:
    """A classically conditioned gate is not a unitary of the circuit:
    every unitary-only entry point refuses it (none can honour the
    condition), like ``StatevectorSimulator.run`` does."""

    @pytest.fixture
    def conditioned_x(self):
        from repro.circuit import ClassicalRegister, QuantumRegister
        from repro.circuit.library.standard_gates import XGate

        creg = ClassicalRegister(1, "c")
        circuit = QuantumCircuit(QuantumRegister(1, "q"), creg)
        circuit.append(XGate().c_if(creg, 1), [0])
        return circuit

    def test_operator_from_circuit(self, conditioned_x):
        from repro.quantum_info import Operator

        with pytest.raises(SimulatorError, match="c_if"):
            Operator.from_circuit(conditioned_x)

    def test_operator_constructor(self, conditioned_x):
        from repro.quantum_info import Operator

        with pytest.raises(SimulatorError, match="c_if"):
            Operator(conditioned_x)

    def test_unitary_simulator(self, conditioned_x):
        with pytest.raises(SimulatorError, match="c_if"):
            UnitarySimulator().run(conditioned_x)

    def test_unitary_simulator_backend(self, conditioned_x):
        from repro.providers import Aer

        result = Aer.get_backend("unitary_simulator").run(
            conditioned_x
        ).result()
        assert result.success is False

    def test_statevector_evolve(self, conditioned_x):
        with pytest.raises(SimulatorError, match="c_if"):
            Statevector.zero_state(1).evolve(conditioned_x)

    def test_statevector_from_instruction(self, conditioned_x):
        with pytest.raises(SimulatorError, match="c_if"):
            Statevector.from_instruction(conditioned_x)

    def test_density_matrix_evolve(self, conditioned_x):
        from repro.quantum_info import DensityMatrix

        with pytest.raises(SimulatorError, match="c_if"):
            DensityMatrix.zero_state(1).evolve(conditioned_x)

    def test_density_matrix_from_instruction(self, conditioned_x):
        from repro.quantum_info import DensityMatrix

        with pytest.raises(SimulatorError, match="c_if"):
            DensityMatrix.from_instruction(conditioned_x)
