"""Tests for variational forms and expectation estimation."""

import numpy as np
import pytest

from repro.algorithms import (
    ExpectationEstimator,
    expectation_from_counts,
    measurement_basis_change,
    ry_ansatz,
    ryrz_ansatz,
    two_local,
)
from repro.circuit import QuantumCircuit
from repro.exceptions import AlgorithmError
from repro.quantum_info import Pauli, PauliSumOp, Statevector


class TestAnsatz:
    def test_ry_parameter_count(self):
        form = ry_ansatz(3, reps=2)
        assert form.num_parameters == 9  # 3 qubits x 3 layers

    def test_ryrz_parameter_count(self):
        form = ryrz_ansatz(2, reps=1)
        assert form.num_parameters == 8  # 2 qubits x 2 layers x 2 angles

    def test_bind_produces_concrete_circuit(self):
        form = ry_ansatz(2, reps=1)
        bound = form.bind(np.zeros(form.num_parameters))
        assert not bound.parameters
        state = Statevector.from_instruction(bound)
        assert state.data[0] == pytest.approx(1.0)  # all-zero rotations

    def test_bind_wrong_length(self):
        form = ry_ansatz(2, reps=1)
        with pytest.raises(AlgorithmError):
            form.bind([0.1])

    def test_entanglement_patterns(self):
        linear = ry_ansatz(3, reps=1, entanglement="linear")
        assert linear.circuit.count_ops()["cx"] == 2
        circular = ry_ansatz(3, reps=1, entanglement="circular")
        assert circular.circuit.count_ops()["cx"] == 3
        full = ry_ansatz(4, reps=1, entanglement="full")
        assert full.circuit.count_ops()["cx"] == 6

    def test_unknown_entanglement(self):
        with pytest.raises(AlgorithmError):
            ry_ansatz(3, entanglement="mystery")

    def test_two_local_variants(self):
        assert two_local(2, "ry").num_parameters == 6
        assert two_local(2, "rz").num_parameters == 6
        assert two_local(2, "ryrz").num_parameters == 12
        with pytest.raises(AlgorithmError):
            two_local(2, "rw")

    def test_expressibility_spans_x_rotation(self):
        # RY ansatz at theta=pi flips the qubit.
        form = ry_ansatz(1, reps=0)
        state = Statevector.from_instruction(form.bind([np.pi]))
        assert abs(state.data[1]) == pytest.approx(1.0)


class TestBasisChange:
    def test_x_measurement(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)  # prepare |+>: X eigenstate
        for gate, qubit in measurement_basis_change(Pauli("X")):
            circuit.append(gate, [qubit])
        circuit.measure(0, 0)
        from repro.simulators import QasmSimulator

        counts = QasmSimulator().run(circuit, shots=200, seed=1)["counts"]
        assert counts == {"0": 200}  # +1 eigenstate maps to |0>

    def test_y_measurement(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.s(0)  # |+i>: Y eigenstate
        for gate, qubit in measurement_basis_change(Pauli("Y")):
            circuit.append(gate, [qubit])
        circuit.measure(0, 0)
        from repro.simulators import QasmSimulator

        counts = QasmSimulator().run(circuit, shots=200, seed=2)["counts"]
        assert counts == {"0": 200}


class TestExpectationFromCounts:
    def test_z_expectation(self):
        assert expectation_from_counts(Pauli("Z"), {"0": 75, "1": 25}) == \
            pytest.approx(0.5)

    def test_zz_parity(self):
        counts = {"00": 50, "11": 50}
        assert expectation_from_counts(Pauli("ZZ"), counts) == pytest.approx(1.0)
        counts = {"01": 50, "10": 50}
        assert expectation_from_counts(Pauli("ZZ"), counts) == pytest.approx(-1.0)

    def test_identity_factor_ignored(self):
        counts = {"01": 100}
        # IZ acts only on qubit 0 (rightmost char).
        assert expectation_from_counts(Pauli("IZ"), counts) == pytest.approx(-1.0)
        assert expectation_from_counts(Pauli("ZI"), counts) == pytest.approx(1.0)

    def test_pure_identity(self):
        assert expectation_from_counts(Pauli("II"), {"00": 3}) == 1.0

    def test_empty_counts_raise(self):
        with pytest.raises(AlgorithmError):
            expectation_from_counts(Pauli("Z"), {})


class TestExpectationEstimator:
    def test_exact_matches_matrix(self):
        hamiltonian = PauliSumOp.from_dict({"ZZ": 0.5, "XI": -0.3, "IY": 0.2})
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.t(0)
        estimator = ExpectationEstimator(hamiltonian, mode="exact")
        state = Statevector.from_instruction(circuit)
        assert estimator.estimate(circuit) == pytest.approx(
            hamiltonian.expectation(state)
        )

    def test_shots_close_to_exact(self):
        hamiltonian = PauliSumOp.from_dict({"ZZ": 1.0, "XX": 0.5})
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        exact = ExpectationEstimator(hamiltonian, mode="exact").estimate(circuit)
        sampled = ExpectationEstimator(
            hamiltonian, mode="shots", shots=8000, seed=3
        ).estimate(circuit)
        assert sampled == pytest.approx(exact, abs=0.05)

    def test_identity_term_constant(self):
        hamiltonian = PauliSumOp.from_dict({"II": -2.5})
        circuit = QuantumCircuit(2)
        estimator = ExpectationEstimator(hamiltonian, mode="shots", shots=10)
        assert estimator.estimate(circuit) == pytest.approx(-2.5)

    def test_width_mismatch(self):
        hamiltonian = PauliSumOp.from_dict({"Z": 1.0})
        estimator = ExpectationEstimator(hamiltonian)
        with pytest.raises(AlgorithmError):
            estimator.estimate(QuantumCircuit(2))

    def test_unknown_mode(self):
        with pytest.raises(AlgorithmError):
            ExpectationEstimator(PauliSumOp.from_dict({"Z": 1.0}), mode="magic")

    def test_evaluation_counter(self):
        hamiltonian = PauliSumOp.from_dict({"Z": 1.0})
        estimator = ExpectationEstimator(hamiltonian)
        circuit = QuantumCircuit(1)
        estimator.estimate(circuit)
        estimator.estimate(circuit)
        assert estimator.evaluations == 2
