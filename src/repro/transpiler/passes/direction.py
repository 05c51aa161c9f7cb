"""CNOT-direction repair (paper Sec. II-B/V-B).

On the QX architectures a CNOT may only point along a coupling-map arrow;
within an allowed pair "it is firmly defined which qubit is the target and
which is the control".  A reversed CNOT is fixed by conjugating with four
Hadamards: CX(a,b) = (H ⊗ H) CX(b,a) (H ⊗ H).
"""

from __future__ import annotations

from repro.circuit.dag import DAGCircuit
from repro.circuit.library.standard_gates import CXGate, HGate
from repro.exceptions import TranspilerError
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.passmanager import AnalysisPass, TransformationPass


class CXDirection(TransformationPass):
    """Flip CNOTs that point against the coupling map's arrows.

    The DAG is rebuilt in one linear pass: each reversed CNOT becomes
    H(c) H(t); CX(t, c); H(c) H(t) in its place, every gate carrying the
    CNOT's condition.
    """

    def __init__(self, coupling: CouplingMap):
        self._coupling = coupling

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        index_of = {q: i for i, q in enumerate(dag.qubits)}
        result = dag.copy_empty_like()
        for node in dag.topological_op_nodes():
            operation = node.operation
            if operation.name == "cx":
                control, target = node.qubits
                c_idx, t_idx = index_of[control], index_of[target]
                if not self._coupling.has_edge(c_idx, t_idx):
                    if not self._coupling.has_edge(t_idx, c_idx):
                        raise TranspilerError(
                            f"cx on non-adjacent physical qubits {c_idx}, "
                            f"{t_idx}; run a routing pass first"
                        )
                    for gate, qubits in (
                        (HGate(), (control,)), (HGate(), (target,)),
                        (CXGate(), (target, control)),
                        (HGate(), (control,)), (HGate(), (target,)),
                    ):
                        gate.condition = operation.condition
                        result.apply_operation_back(gate, qubits)
                    continue
            result.apply_operation_back(operation, node.qubits, node.clbits)
        return result


class CheckMap(AnalysisPass):
    """Analysis pass: verify every 2q gate satisfies the coupling map."""

    def __init__(self, coupling: CouplingMap, check_direction: bool = False):
        self._coupling = coupling
        self._check_direction = check_direction

    def run(self, dag: DAGCircuit, property_set):
        index_of = {q: i for i, q in enumerate(dag.qubits)}
        ok = True
        for node in dag.op_nodes():
            if len(node.qubits) != 2 or node.operation.name == "barrier":
                continue
            a, b = (index_of[q] for q in node.qubits)
            if self._check_direction and node.operation.name == "cx":
                if not self._coupling.has_edge(a, b):
                    ok = False
                    break
            elif not self._coupling.connected(a, b):
                ok = False
                break
        key = "is_direction_mapped" if self._check_direction else "is_swap_mapped"
        property_set[key] = ok
