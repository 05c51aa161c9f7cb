"""End-to-end transpile() tests, incl. the paper's Fig. 4 scenario."""

import pytest

from repro.circuit import QuantumCircuit, random_circuit
from repro.exceptions import TranspilerError
from repro.transpiler import CouplingMap, transpile
from repro.transpiler.equivalence import routed_equivalent
from repro.transpiler.passes import CheckMap
from repro.transpiler.passmanager import PassManager


def assert_device_legal(circuit, coupling):
    manager = PassManager([CheckMap(coupling, check_direction=True)])
    manager.run(circuit)
    assert manager.property_set["is_direction_mapped"]
    allowed = {"u1", "u2", "u3", "cx", "id", "measure", "barrier", "reset"}
    assert set(circuit.count_ops()) <= allowed


class TestTranspileLevels:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_fig4_qx4_all_levels(self, paper_fig1, level):
        qx4 = CouplingMap.qx4()
        result = transpile(paper_fig1, qx4, optimization_level=level, seed=1)
        assert_device_legal(result, qx4)
        assert routed_equivalent(paper_fig1, result)

    def test_fig4_optimized_beats_naive(self, paper_fig1):
        """Fig. 4a vs 4b: the optimized flow uses fewer gates and depth."""
        qx4 = CouplingMap.qx4()
        naive = transpile(paper_fig1, qx4, optimization_level=0, seed=1)
        optimized = transpile(paper_fig1, qx4, optimization_level=3, seed=1)
        assert optimized.size() < naive.size()
        assert optimized.depth() <= naive.depth()
        assert optimized.count_ops().get("cx", 0) <= naive.count_ops().get(
            "cx", 0
        )

    def test_fig4_no_swaps_needed(self, paper_fig1):
        """Fig. 4 adds only direction-fixing H gates for this circuit:
        the CX count must stay at 5 with the trivial layout."""
        qx4 = CouplingMap.qx4()
        result = transpile(paper_fig1, qx4, optimization_level=1, seed=1)
        assert result.count_ops().get("cx", 0) == 5

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_qx5(self, level, seed):
        circuit = random_circuit(6, 5, seed=seed)
        qx5 = CouplingMap.qx5()
        result = transpile(circuit, qx5, optimization_level=level, seed=seed)
        assert_device_legal(result, qx5)
        assert routed_equivalent(circuit, result)

    def test_level3_not_worse_than_level0(self):
        qx5 = CouplingMap.qx5()
        total0 = 0
        total3 = 0
        for seed in range(4):
            circuit = random_circuit(8, 5, seed=seed)
            total0 += transpile(circuit, qx5, optimization_level=0,
                                seed=seed).count_ops().get("cx", 0)
            total3 += transpile(circuit, qx5, optimization_level=3,
                                seed=seed).count_ops().get("cx", 0)
        assert total3 < total0


class TestTranspileOptions:
    def test_string_coupling_name(self, paper_fig1):
        result = transpile(paper_fig1, "ibmqx4", seed=2)
        assert result.num_qubits == 5

    def test_initial_layout(self, bell):
        qx4 = CouplingMap.qx4()
        result = transpile(bell, qx4, initial_layout=[2, 1], seed=3)
        assert result.initial_layout.to_intlist(bell.qubits) == [2, 1]
        assert routed_equivalent(bell, result)

    def test_no_coupling_map_just_unrolls(self, paper_fig1):
        result = transpile(paper_fig1, optimization_level=1)
        assert set(result.count_ops()) <= {"u1", "u2", "u3", "cx", "id"}
        assert routed_equivalent(paper_fig1, result)

    def test_custom_basis(self, bell):
        result = transpile(bell, basis_gates=["u3", "cx"])
        assert set(result.count_ops()) <= {"u3", "cx"}

    def test_explicit_router(self, paper_fig1):
        for router in ("basic", "sabre", "lookahead"):
            result = transpile(
                paper_fig1, CouplingMap.qx4(), routing_method=router, seed=4
            )
            assert routed_equivalent(paper_fig1, result), router

    def test_unknown_router_raises(self, bell):
        with pytest.raises(TranspilerError):
            transpile(bell, CouplingMap.qx4(), routing_method="magic")

    def test_unknown_level_raises(self, bell):
        with pytest.raises(TranspilerError):
            transpile(bell, optimization_level=7)

    def test_too_wide_raises(self):
        with pytest.raises(TranspilerError):
            transpile(QuantumCircuit(6), CouplingMap.qx4())

    def test_measured_circuit(self, measured_bell):
        qx4 = CouplingMap.qx4()
        result = transpile(measured_bell, qx4, seed=5)
        assert result.count_ops()["measure"] == 2
        from repro.simulators import QasmSimulator

        counts = QasmSimulator().run(result, shots=300, seed=6)["counts"]
        assert set(counts) == {"00", "11"}

    @pytest.mark.parametrize(
        "coupling,level",
        [(CouplingMap.qx5(), 1), (CouplingMap.qx4(), 3), (CouplingMap.qx5(), 3)],
    )
    def test_barrier_naming_a_qubit_twice(self, coupling, level):
        """``barrier q, q[0];`` names q[0] twice; its DAG node holds the
        wire once, so routing and the optimization loop get past it."""
        circuit = QuantumCircuit.from_qasm_str(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
            "h q[0];\ncx q[0], q[2];\nbarrier q, q[0];\n"
            "cx q[1], q[2];\nh q[1];\n"
        )
        result = transpile(circuit, coupling, optimization_level=level, seed=3)
        assert_device_legal(result, coupling)
        assert routed_equivalent(circuit, result)


class TestEquivalenceChecker:
    def test_detects_wrong_circuit(self, bell):
        broken = QuantumCircuit(2)
        broken.h(0)  # missing the cx
        assert not routed_equivalent(bell, broken)

    def test_assert_helper(self, bell):
        from repro.transpiler.equivalence import assert_routed_equivalent

        broken = QuantumCircuit(2)
        with pytest.raises(TranspilerError):
            assert_routed_equivalent(bell, broken)

    def test_permute_statevector(self):
        import numpy as np

        from repro.transpiler.equivalence import (
            permutation_matrix,
            permute_statevector,
        )

        state = np.arange(8, dtype=complex)
        perm = [2, 0, 1]
        assert np.allclose(
            permute_statevector(state, perm),
            permutation_matrix(perm) @ state,
        )
