"""Dense unitary/matrix operator, the 'exponentially large matrix' of Sec. V-A."""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.matrix_utils import (
    allclose_up_to_global_phase,
    is_unitary,
)
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError


class Operator:
    """A dense ``2**n x 2**n`` matrix operator on ``n`` qubits."""

    def __init__(self, data):
        if isinstance(data, QuantumCircuit):
            self._data = Operator.from_circuit(data)._data
        elif isinstance(data, Gate):
            self._data = np.asarray(data.to_matrix(), dtype=complex)
        else:
            self._data = np.asarray(data, dtype=complex).copy()
        if self._data.ndim != 2 or self._data.shape[0] != self._data.shape[1]:
            raise SimulatorError("operator matrix must be square")
        dim = self._data.shape[0]
        num_qubits = int(round(math.log2(dim))) if dim > 0 else -1
        if num_qubits < 0 or 2**num_qubits != dim:
            raise SimulatorError(f"dimension {dim} is not a power of two")
        self._num_qubits = num_qubits

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "Operator":
        """Compute the full unitary of a unitary-only circuit.

        The circuit's lowered program runs on the identity's ``2**n``
        columns as one batch.  A measurement, reset, other non-gate
        operation or classically conditioned gate raises
        :class:`SimulatorError`.
        """
        from repro.simulators import kernels
        from repro.simulators.program import Program

        program = Program(circuit)
        program.require_unitary("circuit contains non-unitary operation '{}'")
        dim = 2**circuit.num_qubits
        return cls(kernels.apply_steps(np.eye(dim, dtype=complex),
                                       program.gates, circuit.num_qubits, dim))

    @property
    def data(self) -> np.ndarray:
        """The matrix."""
        return self._data

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Matrix dimension."""
        return self._data.shape[0]

    def to_matrix(self) -> np.ndarray:
        """Return the matrix (alias for :attr:`data`)."""
        return self._data

    def is_unitary(self, atol=1e-8) -> bool:
        """Whether the operator is unitary."""
        return is_unitary(self._data, atol=atol)

    def compose(self, other: "Operator") -> "Operator":
        """Return ``other @ self`` — i.e. apply ``self`` first."""
        return Operator(other._data @ self._data)

    def dot(self, other: "Operator") -> "Operator":
        """Matrix product ``self @ other``."""
        return Operator(self._data @ other._data)

    def tensor(self, other: "Operator") -> "Operator":
        """Kronecker product ``self ⊗ other`` (other on low qubits)."""
        return Operator(np.kron(self._data, other._data))

    def adjoint(self) -> "Operator":
        """Conjugate transpose."""
        return Operator(self._data.conj().T)

    def equiv(self, other, atol=1e-8) -> bool:
        """Equality up to global phase."""
        other_data = other._data if isinstance(other, Operator) else np.asarray(other)
        return allclose_up_to_global_phase(self._data, other_data, atol=atol)

    def __matmul__(self, other):
        if isinstance(other, Operator):
            return self.dot(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.allclose(self._data, other._data)
        )

    def __repr__(self):
        return f"Operator(num_qubits={self._num_qubits})"
