"""Diagonal-gate fusion — the DAG-enabled payoff pass (ROADMAP item).

QFT-style circuits spend most of their gate count in back-to-back diagonal
gates (cu1/cp/rz/t/s/z).  Each one is an elementwise multiply over the
state; a *run* of them is still just one elementwise multiply by the
product of their diagonals.  This pass collapses such runs into a single
:class:`~repro.circuit.library.standard_gates.DiagonalGate`, which the
simulators execute through the tiled diagonal kernel
(:func:`repro.simulators.kernels.apply_diagonal`) without ever building a
dense matrix.

Only meaningful for simulator targets: real devices have no native
``diagonal`` instruction, so the preset pipelines schedule this pass only
when the target's basis supports it.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.dag import DAGCircuit, DAGOpNode
from repro.circuit.library.standard_gates import DiagonalGate
from repro.transpiler.passmanager import TransformationPass

#: Largest matrix a gate may have for structural diagonal detection.
_MAX_DETECT_DIM = 256


def _diagonal_vector(operation):
    """The operation's diagonal vector, or None when it is not diagonal."""
    direct = getattr(operation, "diagonal", None)
    if direct is not None:
        return direct
    try:
        matrix = operation.to_matrix()
    except Exception:
        return None
    if matrix.shape[0] > _MAX_DETECT_DIM:
        return None
    diagonal = np.diagonal(matrix)
    off = matrix - np.diag(diagonal)
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if np.max(np.abs(off)) > 1e-12 * scale:
        return None
    return diagonal


class _Run:
    """An open run of diagonal nodes awaiting fusion."""

    __slots__ = ("nodes", "support")

    def __init__(self, node: DAGOpNode):
        self.nodes = [node]
        self.support = set(node.qubits)


class FuseDiagonalGates(TransformationPass):
    """Collapse adjacent diagonal-gate runs into single fused diagonals.

    Walks the DAG in topological order keeping *open runs* of diagonal
    nodes.  A diagonal node joins (and merges) every open run it shares a
    qubit with, as long as the merged support stays within ``max_qubits``;
    any non-diagonal node flushes the runs it touches first, preserving
    wire order.  Diagonal gates commute among themselves, so deferring
    them to the flush point is exact.  Runs of length 1 are emitted
    unchanged — circuits without fusable structure come out gate-for-gate
    identical.
    """

    def __init__(self, max_qubits: int = 8, min_run: int = 2):
        self._max_qubits = max_qubits
        self._min_run = min_run

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        result = dag.copy_empty_like()
        qubit_index = {q: i for i, q in enumerate(dag.qubits)}
        open_runs: list[_Run] = []

        def flush(run: _Run):
            if len(run.nodes) < self._min_run:
                for node in run.nodes:
                    result.apply_operation_back(
                        node.operation, list(node.qubits), list(node.clbits)
                    )
                return
            support = sorted(run.support, key=lambda q: qubit_index[q])
            position = {q: p for p, q in enumerate(support)}
            indices = np.arange(1 << len(support))
            fused = np.ones(indices.size, dtype=complex)
            for node in run.nodes:
                diagonal = np.asarray(
                    _diagonal_vector(node.operation), dtype=complex
                )
                sub = np.zeros(indices.size, dtype=np.intp)
                for i, qubit in enumerate(node.qubits):
                    sub |= ((indices >> position[qubit]) & 1) << i
                fused *= diagonal[sub]
            result.apply_operation_back(DiagonalGate(fused), support)

        for node in dag.topological_op_nodes():
            operation = node.operation
            fusable = (
                operation.condition is None
                and not node.clbits
                and operation.name not in ("barrier", "measure", "reset")
                and 0 < len(node.qubits) <= self._max_qubits
                and _diagonal_vector(operation) is not None
            )
            if fusable:
                touched = set(node.qubits)
                sharing = [r for r in open_runs if r.support & touched]
                merged_support = set(touched)
                for r in sharing:
                    merged_support |= r.support
                if len(merged_support) <= self._max_qubits:
                    if sharing:
                        head = sharing[0]
                        for r in sharing[1:]:
                            head.nodes.extend(r.nodes)
                            head.support |= r.support
                            open_runs.remove(r)
                        head.nodes.append(node)
                        head.support |= touched
                    else:
                        open_runs.append(_Run(node))
                else:
                    for r in sharing:
                        flush(r)
                        open_runs.remove(r)
                    open_runs.append(_Run(node))
                continue
            wires = set(node.wires)
            for r in [r for r in open_runs if r.support & wires]:
                flush(r)
                open_runs.remove(r)
            result.apply_operation_back(
                operation, list(node.qubits), list(node.clbits)
            )
        for r in open_runs:
            flush(r)
        return result
