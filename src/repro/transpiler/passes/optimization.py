"""Optimization passes: gate cancellation and single-qubit resynthesis.

The paper (Sec. III): the transpiler makes "quantum circuits more optimized
for running on real hardware e.g. by minimizing occurrences of CNOT gates"
— and inserting fewer gates matters because every added gate increases the
error probability (Sec. V-B).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.dag import DAGCircuit
from repro.circuit.gate import Gate
from repro.transpiler.passes.unroller import u3_from_matrix
from repro.transpiler.passmanager import AnalysisPass, TransformationPass

#: Gates that cancel with an identical neighbour on the same qubits.
_SELF_INVERSE = {"cx", "cz", "swap", "h", "x", "y", "z", "ccx", "cswap", "id"}
#: Pairs that cancel each other.
_INVERSE_PAIRS = {("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t"),
                  ("sx", "sxdg"), ("sxdg", "sx")}
#: Names a gate must have to cancel with the gate before it.
_CANCELLING = _SELF_INVERSE | {second for _, second in _INVERSE_PAIRS}
#: Symmetric gates where operand order does not matter.
_SYMMETRIC = {"cz", "swap", "rzz", "cu1", "cp"}


def _cancels(op_a, qubits_a, op_b, qubits_b) -> bool:
    """Whether two adjacent gates annihilate."""
    if op_a.condition is not None or op_b.condition is not None:
        return False
    same_qubits = qubits_a == qubits_b or (
        op_a.name in _SYMMETRIC and set(qubits_a) == set(qubits_b)
    )
    if not same_qubits:
        return False
    if op_a.name == op_b.name and op_a.name in _SELF_INVERSE:
        return True
    return (op_a.name, op_b.name) in _INVERSE_PAIRS


class GateCancellation(TransformationPass):
    """Cancel adjacent self-inverse / mutually-inverse gate pairs.

    Covers the classic CX-CX cancellation plus H-H, X-X, S-Sdg, etc.  On
    the DAG, adjacency is per-wire: a pair cancels when the earlier gate
    is the immediate predecessor on *every* wire of the later one.
    Removal splices the wires, so chains like H H H H vanish within one
    sweep; sweeps repeat to a fixed point.
    """

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        changed = True
        while changed:
            changed = False
            for node in dag.topological_op_nodes():
                if node not in dag:
                    continue
                op = node.operation
                if (op.name not in _CANCELLING or node.clbits
                        or op.condition is not None):
                    continue
                # Adjacent: one node precedes this one on every wire.
                wires = node.wires
                prev = dag.wire_predecessor(node, wires[0]) if wires else None
                if prev is None or any(
                    dag.wire_predecessor(node, wire) is not prev
                    for wire in wires[1:]
                ):
                    continue
                if prev.operation.name == "barrier" or prev.clbits:
                    continue
                if _cancels(prev.operation, prev.qubits, op, node.qubits):
                    dag.remove_op_node(prev)
                    dag.remove_op_node(node)
                    changed = True
        return dag


#: Backwards-compatible name: the CNOT-minimization pass.
CXCancellation = GateCancellation


def _is_identity(matrix, atol: float) -> bool:
    """``np.allclose(matrix, np.eye(2), atol=atol)`` on Python scalars:
    every entry within ``atol + 1e-5 * |identity entry|``."""
    (a, b), (c, d) = matrix.tolist()
    diagonal = atol + 1e-05
    return (abs(a - 1.0) <= diagonal and abs(b) <= atol
            and abs(c) <= atol and abs(d - 1.0) <= diagonal)


class Optimize1qGates(TransformationPass):
    """Fuse runs of adjacent single-qubit gates into one u1/u2/u3.

    Any maximal run of 1q gates on a wire is multiplied out and
    re-synthesized via ZYZ Euler decomposition — the
    ``U(theta,phi,lambda) = Rz Ry Rz`` form of the paper's Sec. II-B.
    Identity products are dropped entirely.
    """

    def __init__(self, tolerance: float = 1e-10, basis=None):
        self._tol = tolerance
        self._basis = set(basis) if basis is not None else None

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        result = dag.copy_empty_like()
        pending: dict = {}  # qubit -> the run's gates, in order

        def flush(qubit):
            run = pending.pop(qubit, None)
            if run is None:
                return
            gate = self._fuse(run)
            if gate is not None:
                result.apply_operation_back(gate, [qubit])

        for node in dag.topological_op_nodes():
            op = node.operation
            fusable = (
                isinstance(op, Gate)
                and op.num_qubits == 1
                and op.condition is None
                and not op.is_parameterized()
                and op.name != "unitary"
            )
            if fusable:
                pending.setdefault(node.qubits[0], []).append(op)
                continue
            for qubit in node.qubits:
                flush(qubit)
            result.apply_operation_back(op, node.qubits, node.clbits)
        for qubit in list(pending):
            flush(qubit)
        return result

    def _fuse(self, run):
        """Multiply the run out in order and resynthesize the product
        (None when it is the identity up to phase)."""
        matrix = np.eye(2, dtype=complex)
        for op in run:
            matrix = op.to_matrix() @ matrix
        phase_fixed = matrix * np.exp(-1j * np.angle(matrix[0, 0])) \
            if abs(matrix[0, 0]) > 1e-12 else matrix
        if _is_identity(phase_fixed, self._tol):
            return None
        return u3_from_matrix(matrix, basis=self._basis)


class RemoveBarriers(TransformationPass):
    """Strip all barriers (useful before equivalence checking)."""

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        for node in dag.op_nodes("barrier"):
            dag.remove_op_node(node)
        return dag


class Depth(AnalysisPass):
    """Analysis: record circuit depth in ``property_set['depth']``."""

    def run(self, dag: DAGCircuit, property_set):
        property_set["depth"] = dag.depth()


class Size(AnalysisPass):
    """Analysis: record gate count in ``property_set['size']``."""

    def run(self, dag: DAGCircuit, property_set):
        property_set["size"] = dag.size()


class FixedPoint(AnalysisPass):
    """Analysis: detect when a property stops changing between iterations.

    Writes ``property_set['<name>_fixed_point']`` — True once the tracked
    property equals its value from the previous invocation.  Pair with a
    :class:`~repro.transpiler.passmanager.DoWhileController` to iterate an
    optimization stage to a fixed point.
    """

    def __init__(self, property_name: str):
        self._property = property_name

    def run(self, dag: DAGCircuit, property_set):
        current = property_set.get(self._property)
        previous_key = f"_{self._property}_previous"
        property_set[f"{self._property}_fixed_point"] = (
            current is not None
            and property_set.get(previous_key) == current
        )
        property_set[previous_key] = current
