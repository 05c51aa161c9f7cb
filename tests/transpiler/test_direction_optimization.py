"""Tests for CX-direction repair and the optimization passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit, random_circuit
from repro.circuit.dag import DAGCircuit
from repro.exceptions import TranspilerError
from repro.quantum_info import Operator
from repro.transpiler import CouplingMap, PassManager
from repro.transpiler.passes import (
    CXDirection,
    CheckMap,
    GateCancellation,
    Optimize1qGates,
    RemoveBarriers,
    optimization,
)


class TestCXDirection:
    def test_reversed_cx_conjugated_with_h(self):
        """The paper's H-sandwich trick (Fig. 4a)."""
        coupling = CouplingMap.qx4()  # only 1->0 allowed
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)  # illegal direction
        fixed = PassManager([CXDirection(coupling)]).run(circuit)
        assert fixed.count_ops() == {"h": 4, "cx": 1}
        cx_item = [i for i in fixed.data if i.operation.name == "cx"][0]
        assert fixed.find_bit(cx_item.qubits[0]) == 1  # now control=1
        assert Operator.from_circuit(fixed).equiv(Operator.from_circuit(circuit))

    def test_reversed_cx_keeps_its_condition_and_place(self):
        from repro.circuit import ClassicalRegister, QuantumRegister

        creg = ClassicalRegister(1, "c")
        circuit = QuantumCircuit(QuantumRegister(5, "q"), creg)
        circuit.x(0)
        circuit.cx(0, 1)  # illegal direction on QX4
        circuit.data[-1].operation.c_if(creg, 1)
        circuit.x(1)
        fixed = PassManager([CXDirection(CouplingMap.qx4())]).run(circuit)
        assert [item.operation.name for item in fixed.data] == [
            "x", "h", "h", "cx", "h", "h", "x"
        ]
        assert [item.operation.condition for item in fixed.data[1:6]] == [
            (creg, 1)
        ] * 5
        assert fixed.data[0].operation.condition is None
        assert fixed.data[6].operation.condition is None

    def test_legal_direction_untouched(self):
        coupling = CouplingMap.qx4()
        circuit = QuantumCircuit(5)
        circuit.cx(1, 0)
        fixed = PassManager([CXDirection(coupling)]).run(circuit)
        assert fixed.count_ops() == {"cx": 1}

    def test_nonadjacent_raises(self):
        coupling = CouplingMap.qx4()
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        with pytest.raises(TranspilerError):
            PassManager([CXDirection(coupling)]).run(circuit)

    def test_checkmap_direction_mode(self):
        coupling = CouplingMap.qx4()
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)
        manager = PassManager([CheckMap(coupling, check_direction=True)])
        manager.run(circuit)
        assert manager.property_set["is_direction_mapped"] is False
        fixed = PassManager([CXDirection(coupling)]).run(circuit)
        manager.run(fixed)
        assert manager.property_set["is_direction_mapped"] is True


class TestGateCancellation:
    def test_cx_cx_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.size() == 0

    def test_cx_different_direction_kept(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.size() == 2

    def test_cz_symmetric_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        circuit.cz(1, 0)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.size() == 0

    def test_h_chain_cancels_fully(self):
        circuit = QuantumCircuit(1)
        for _ in range(4):
            circuit.h(0)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.size() == 0

    def test_odd_chain_leaves_one(self):
        circuit = QuantumCircuit(1)
        for _ in range(3):
            circuit.h(0)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.size() == 1

    def test_s_sdg_pair(self):
        circuit = QuantumCircuit(1)
        circuit.s(0)
        circuit.sdg(0)
        assert PassManager([GateCancellation()]).run(circuit).size() == 0

    def test_t_tdg_pair(self):
        circuit = QuantumCircuit(1)
        circuit.tdg(0)
        circuit.t(0)
        assert PassManager([GateCancellation()]).run(circuit).size() == 0

    def test_blocked_by_intervening_gate(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.x(1)
        circuit.cx(0, 1)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.count_ops()["cx"] == 2

    def test_blocked_by_barrier(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.barrier()
        circuit.h(0)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.size() == 2

    def test_conditional_not_cancelled(self):
        from repro.circuit import ClassicalRegister, QuantumRegister

        creg = ClassicalRegister(1, "c")
        circuit = QuantumCircuit(QuantumRegister(1, "q"), creg)
        circuit.x(0)
        circuit.x(0)
        circuit.data[-1].operation.c_if(creg, 1)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert reduced.size() == 2

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_preserves_unitary(self, seed):
        circuit = random_circuit(3, 6, seed=seed)
        reduced = PassManager([GateCancellation()]).run(circuit)
        assert Operator.from_circuit(reduced).equiv(
            Operator.from_circuit(circuit)
        ), seed


class TestOptimize1qGates:
    def test_fuses_runs(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.t(0)
        circuit.h(0)
        circuit.s(0)
        fused = PassManager([Optimize1qGates()]).run(circuit)
        assert fused.size() == 1
        assert Operator.from_circuit(fused).equiv(Operator.from_circuit(circuit))

    def test_identity_run_dropped(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.x(0)
        fused = PassManager([Optimize1qGates()]).run(circuit)
        assert fused.size() == 0

    def test_interrupted_by_cx(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(0)
        fused = PassManager([Optimize1qGates()]).run(circuit)
        assert fused.count_ops()["cx"] == 1
        assert Operator.from_circuit(fused).equiv(Operator.from_circuit(circuit))

    def test_interrupted_by_barrier(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        circuit.barrier()
        circuit.t(0)
        fused = PassManager([Optimize1qGates()]).run(circuit)
        assert fused.size() == 2

    def test_parameterized_left_alone(self):
        from repro.circuit import Parameter

        theta = Parameter("t")
        circuit = QuantumCircuit(1)
        circuit.rx(theta, 0)
        fused = PassManager([Optimize1qGates()]).run(circuit)
        assert fused.data[0].operation.name == "rx"

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_preserves_unitary(self, seed):
        circuit = random_circuit(3, 6, seed=seed)
        fused = PassManager([Optimize1qGates()]).run(circuit)
        assert Operator.from_circuit(fused).equiv(
            Operator.from_circuit(circuit)
        ), seed

    def test_never_increases_1q_count(self):
        circuit = QuantumCircuit(1)
        for _ in range(10):
            circuit.t(0)
            circuit.h(0)
        fused = PassManager([Optimize1qGates()]).run(circuit)
        assert fused.size() <= 1


class TestRemoveBarriers:
    def test_strips_all(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.cx(0, 1)
        circuit.barrier(0)
        stripped = PassManager([RemoveBarriers()]).run(circuit)
        assert "barrier" not in stripped.count_ops()
        assert stripped.size() == 2

    def test_barrier_naming_a_qubit_twice(self):
        circuit = QuantumCircuit.from_qasm_str(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
            "h q[0];\nbarrier q, q[0];\ncx q[0], q[1];\n"
        )
        dag = RemoveBarriers().run(DAGCircuit(circuit), {})
        h, cx = dag.op_nodes()
        assert dag.wire_successor(h, circuit.qubits[0]) is cx
        assert dag.wire_successor(cx, circuit.qubits[0]) is None
        assert dag.depth() == 2


def _ulp_neighbours(value, count=3):
    """``value`` and the ``count`` floats on either side of it."""
    values = [value]
    up = down = value
    for _ in range(count):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        values += [up, down]
    return values


class TestOptimize1qInternals:
    """The scalar identity check, and resynthesis into the basis."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-6])
    def test_identity_check_matches_allclose_on_random_matrices(self, tol):
        rng = np.random.default_rng(2019)
        outcomes = set()
        for _ in range(10_000):
            scale = 10.0 ** rng.uniform(-14, 0)
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            matrix = np.eye(2) + scale * noise
            expected = np.allclose(matrix, np.eye(2), atol=tol)
            assert optimization._is_identity(matrix, tol) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("tol", [1e-10, 1e-8])
    def test_identity_check_matches_allclose_at_the_bounds(self, tol):
        off = _ulp_neighbours(tol) + [-x for x in _ulp_neighbours(tol)]
        diagonal = _ulp_neighbours(1.0 + (tol + 1e-05)) + _ulp_neighbours(
            1.0 - (tol + 1e-05)
        )
        outcomes = set()
        for a in diagonal:
            for b in off:
                for matrix in (
                    np.array([[a, 0], [0, 1]], dtype=complex),
                    np.array([[1, 0], [0, a]], dtype=complex),
                    np.array([[1, b], [0, 1]], dtype=complex),
                    np.array([[1, 0], [1j * b, 1]], dtype=complex),
                    np.array([[a, b], [b, 1 + 0j]], dtype=complex),
                ):
                    expected = np.allclose(matrix, np.eye(2), atol=tol)
                    assert optimization._is_identity(matrix, tol) == expected
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_resynthesis_keeps_to_the_basis(self):
        circuit = QuantumCircuit(2)
        circuit.t(0)
        circuit.t(0)
        circuit.h(1)
        full = PassManager(
            [Optimize1qGates(basis=["u1", "u2", "u3", "cx"])]
        ).run(circuit)
        assert set(full.count_ops()) == {"u1", "u2"}
        restricted = PassManager(
            [Optimize1qGates(basis=["u3", "cx"])]
        ).run(circuit)
        assert set(restricted.count_ops()) == {"u3"}
        assert Operator.from_circuit(restricted).equiv(
            Operator.from_circuit(circuit)
        )
