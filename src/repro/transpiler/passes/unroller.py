"""Unrolling passes: decompose gates down to a basis.

The paper (Sec. II-B): "the user first has to decompose all non-elementary
quantum operations (e.g. Toffoli gate, SWAP gate, or Fredkin gate) to the
elementary operations U(theta, phi, lambda) and CNOT."
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.circuit.dag import DAGCircuit
from repro.circuit.gate import Gate
from repro.circuit.library.standard_gates import U1Gate, U2Gate, U3Gate
from repro.exceptions import TranspilerError
from repro.transpiler.passmanager import TransformationPass

#: The IBM QX native basis (u1 and u2 are restricted/cheaper u3 pulses).
IBMQX_BASIS = ("u1", "u2", "u3", "cx", "id")

_ALWAYS_ALLOWED = {"measure", "reset", "barrier"}


def zyz_decomposition(matrix) -> tuple[float, float, float]:
    """Euler angles (theta, phi, lam) with ``u3(theta,phi,lam) ~ matrix``
    up to global phase."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise TranspilerError("ZYZ decomposition needs a 2x2 matrix")
    # Remove global phase so entry (0,0) is real and non-negative.
    if abs(matrix[0, 0]) > 1e-12:
        matrix = matrix * cmath.exp(-1j * cmath.phase(matrix[0, 0]))
    off_diag = abs(matrix[1, 0])
    diag = abs(matrix[0, 0])
    theta = 2.0 * math.atan2(off_diag, diag)
    if off_diag < 1e-9:
        # (Near-)diagonal: all phase sits in lambda; arg of the ~0
        # off-diagonal entries would be numerical garbage.
        phi = 0.0
        lam = cmath.phase(matrix[1, 1]) if abs(matrix[1, 1]) > 1e-12 else 0.0
        theta = 0.0
    elif diag < 1e-9:
        # Anti-diagonal.
        theta = math.pi
        phi = cmath.phase(matrix[1, 0])
        lam = cmath.phase(-matrix[0, 1])
    else:
        phi = cmath.phase(matrix[1, 0])
        lam = cmath.phase(-matrix[0, 1])
    return theta, phi, lam


def u3_from_matrix(matrix, basis=None) -> Gate:
    """Resynthesize a 1-qubit unitary as u1/u2/u3 (cheapest pulse wins).

    When ``basis`` is given, only gate names it contains are emitted
    (falling back to the generic u3/u form, which must then be available).
    """
    def allowed(name):
        return basis is None or name in basis

    theta, phi, lam = zyz_decomposition(matrix)
    if abs(theta) < 1e-9 and allowed("u1"):
        return U1Gate(_wrap(phi + lam))
    if abs(theta - math.pi / 2) < 1e-9 and allowed("u2"):
        return U2Gate(_wrap(phi), _wrap(lam))
    if allowed("u3"):
        return U3Gate(theta, _wrap(phi), _wrap(lam))
    if basis is not None and "u" in basis:
        from repro.circuit.library.standard_gates import UGate

        return UGate(theta, _wrap(phi), _wrap(lam))
    raise TranspilerError(
        "cannot resynthesize a 1q unitary: basis lacks u3/u"
    )


def _wrap(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(angle, 2 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2 * math.pi
    return wrapped


class Unroller(TransformationPass):
    """Recursively expand gate definitions until only basis gates remain.

    A DAG already in the basis comes back unchanged: every pass leaves
    node ids in topological order, so a rebuild would only renumber them.
    """

    def __init__(self, basis=IBMQX_BASIS):
        self._basis = set(basis)
        self._allowed = self._basis | _ALWAYS_ALLOWED

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        nodes = dag.topological_op_nodes()
        if all(node.operation.name in self._allowed for node in nodes):
            return dag
        unrolled = dag.copy_empty_like()
        for node in nodes:
            self._emit(unrolled, node.operation, list(node.qubits),
                       list(node.clbits))
        return unrolled

    def _emit(self, target: DAGCircuit, operation, qubits, clbits, depth=0):
        if depth > 64:
            raise TranspilerError(
                f"definition recursion too deep at '{operation.name}'"
            )
        name = operation.name
        if name in self._allowed:
            target.apply_operation_back(operation, qubits, clbits)
            return
        definition = operation.definition
        if definition is None:
            if isinstance(operation, Gate) and operation.num_qubits == 1:
                replacement = u3_from_matrix(
                    operation.to_matrix(), basis=self._basis
                )
                if operation.condition is not None:
                    replacement.condition = operation.condition
                self._emit(target, replacement, qubits, clbits, depth + 1)
                return
            if isinstance(operation, Gate) and not operation.is_parameterized():
                # Multi-qubit matrix-only gate: synthesize via the quantum
                # Shannon decomposition.
                from repro.exceptions import ReproError
                from repro.synthesis.qsd import synthesize_unitary

                try:
                    matrix = operation.to_matrix()
                except ReproError as exc:
                    raise TranspilerError(
                        f"cannot unroll '{name}': no definition and no "
                        f"matrix ({exc})"
                    ) from exc
                synthesized = synthesize_unitary(matrix)
                for item in synthesized.data:
                    sub = item.operation.copy()
                    if operation.condition is not None:
                        sub.condition = operation.condition
                    positions = [
                        synthesized.find_bit(q) for q in item.qubits
                    ]
                    self._emit(
                        target,
                        sub,
                        [qubits[i] for i in positions],
                        [],
                        depth + 1,
                    )
                return
            raise TranspilerError(
                f"cannot unroll '{name}': no definition and no matrix"
            )
        for sub, qpos, cpos in definition:
            sub = sub.copy()
            if operation.condition is not None and sub.condition is None:
                sub.condition = operation.condition
            self._emit(
                target,
                sub,
                [qubits[i] for i in qpos],
                [clbits[i] for i in cpos],
                depth + 1,
            )


class Decompose(TransformationPass):
    """Expand one definition level of the named gates only."""

    def __init__(self, names):
        if isinstance(names, str):
            names = [names]
        self._names = set(names)

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        result = dag.copy_empty_like()
        for node in dag.topological_op_nodes():
            op = node.operation
            if op.name in self._names and op.definition is not None:
                for sub, qpos, cpos in op.definition:
                    sub = sub.copy()
                    if op.condition is not None:
                        sub.condition = op.condition
                    result.apply_operation_back(
                        sub,
                        [node.qubits[i] for i in qpos],
                        [node.clbits[i] for i in cpos],
                    )
            else:
                result.apply_operation_back(
                    op, list(node.qubits), list(node.clbits)
                )
        return result
