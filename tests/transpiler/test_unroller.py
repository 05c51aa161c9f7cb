"""Tests for unrolling and 1-qubit resynthesis (ZYZ)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit, random_circuit
from repro.circuit.library.standard_gates import U3Gate
from repro.circuit.matrix_utils import allclose_up_to_global_phase
from repro.exceptions import TranspilerError
from repro.quantum_info import Operator
from repro.quantum_info.random import random_unitary
from repro.transpiler import PassManager
from repro.transpiler.passes import (
    IBMQX_BASIS,
    Decompose,
    Unroller,
    u3_from_matrix,
    zyz_decomposition,
)


class TestZYZ:
    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_random_unitary_roundtrip(self, seed):
        matrix = random_unitary(1, seed=seed)
        theta, phi, lam = zyz_decomposition(matrix)
        rebuilt = U3Gate(theta, phi, lam).to_matrix()
        assert allclose_up_to_global_phase(rebuilt, matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[1, 1], [1, -1]]) / math.sqrt(2),
            np.diag([1, 1j]),
            np.diag([1, -1]),
            np.array([[0, -1j], [1j, 0]]),
        ],
    )
    def test_special_matrices(self, matrix):
        theta, phi, lam = zyz_decomposition(np.asarray(matrix, dtype=complex))
        rebuilt = U3Gate(theta, phi, lam).to_matrix()
        assert allclose_up_to_global_phase(rebuilt, matrix)

    def test_u3_from_matrix_picks_cheapest(self):
        from repro.circuit.library.standard_gates import HGate, TGate

        assert u3_from_matrix(TGate().to_matrix()).name == "u1"
        assert u3_from_matrix(HGate().to_matrix()).name == "u2"
        assert u3_from_matrix(random_unitary(1, seed=1)).name == "u3"

    def test_non_2x2_raises(self):
        with pytest.raises(TranspilerError):
            zyz_decomposition(np.eye(4))


class TestUnroller:
    def test_paper_decomposition_requirement(self):
        """Sec. II-B: Toffoli, SWAP, Fredkin decompose to U + CNOT."""
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 1)
        circuit.cswap(0, 1, 2)
        unrolled = PassManager([Unroller(IBMQX_BASIS)]).run(circuit)
        assert set(unrolled.count_ops()) <= {"u1", "u2", "u3", "cx", "id"}
        assert Operator.from_circuit(unrolled).equiv(
            Operator.from_circuit(circuit)
        )

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_unroll_preserves_unitary(self, seed):
        circuit = random_circuit(3, 5, seed=seed)
        unrolled = PassManager([Unroller(IBMQX_BASIS)]).run(circuit)
        assert set(unrolled.count_ops()) <= {"u1", "u2", "u3", "cx", "id"}
        assert Operator.from_circuit(unrolled).equiv(
            Operator.from_circuit(circuit)
        ), seed

    def test_nonstandard_basis(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        unrolled = PassManager([Unroller(["cx", "u3", "h"])]).run(circuit)
        assert unrolled.count_ops() == {"cx": 3}

    def test_dag_already_in_basis_comes_back_unchanged(self):
        from repro.circuit.dag import circuit_to_dag

        circuit = QuantumCircuit(2, 1)
        circuit.u2(0.0, math.pi, 0)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.measure(1, 0)
        dag = circuit_to_dag(circuit)
        assert Unroller(IBMQX_BASIS).run(dag, {}) is dag
        circuit.h(1)
        dag = circuit_to_dag(circuit)
        unrolled = Unroller(IBMQX_BASIS).run(dag, {})
        assert unrolled is not dag
        assert [n.name for n in unrolled.op_nodes()] == [
            "u2", "cx", "barrier", "measure", "u2"
        ]

    def test_measure_barrier_pass_through(self, measured_bell):
        unrolled = PassManager([Unroller(IBMQX_BASIS)]).run(measured_bell)
        assert unrolled.count_ops()["measure"] == 2

    def test_condition_propagates(self):
        from repro.circuit import ClassicalRegister, QuantumRegister

        creg = ClassicalRegister(1, "c")
        circuit = QuantumCircuit(QuantumRegister(1, "q"), creg)
        circuit.h(0)
        circuit.data[-1].operation.c_if(creg, 1)
        unrolled = PassManager([Unroller(IBMQX_BASIS)]).run(circuit)
        assert unrolled.data[0].operation.condition == (creg, 1)

    def test_1q_matrix_gate_resynthesized(self):
        circuit = QuantumCircuit(1)
        circuit.unitary(random_unitary(1, seed=5), [0])
        unrolled = PassManager([Unroller(IBMQX_BASIS)]).run(circuit)
        assert set(unrolled.count_ops()) <= {"u1", "u2", "u3"}
        assert Operator.from_circuit(unrolled).equiv(
            Operator.from_circuit(circuit)
        )

    def test_multiqubit_unitary_synthesized(self):
        """2q+ matrix gates unroll via the Shannon decomposition."""
        circuit = QuantumCircuit(2)
        circuit.unitary(random_unitary(2, seed=6), [0, 1])
        unrolled = PassManager([Unroller(IBMQX_BASIS)]).run(circuit)
        assert set(unrolled.count_ops()) <= {"u1", "u2", "u3", "cx", "id"}
        assert Operator.from_circuit(unrolled).equiv(
            Operator.from_circuit(circuit)
        )

    def test_three_qubit_unitary_synthesized(self):
        circuit = QuantumCircuit(3)
        circuit.unitary(random_unitary(3, seed=7), [0, 1, 2])
        unrolled = PassManager([Unroller(IBMQX_BASIS)]).run(circuit)
        assert Operator.from_circuit(unrolled).equiv(
            Operator.from_circuit(circuit)
        )

    def test_truly_opaque_raises(self):
        from repro.circuit.gate import Gate

        circuit = QuantumCircuit(2)
        opaque = Gate("mystery", 2)
        circuit.append(opaque, [[0, 1]])
        with pytest.raises(TranspilerError):
            PassManager([Unroller(IBMQX_BASIS)]).run(circuit)


class TestDecompose:
    def test_single_level(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        decomposed = PassManager([Decompose("swap")]).run(circuit)
        assert decomposed.count_ops() == {"cx": 3}

    def test_untargeted_left_alone(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 1)
        decomposed = PassManager([Decompose("swap")]).run(circuit)
        assert decomposed.count_ops()["ccx"] == 1
