"""Mixed-state representation used by the noisy (Aer-style) simulator."""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError


class DensityMatrix:
    """An ``n``-qubit density operator rho."""

    def __init__(self, data, validate=True):
        self._data = np.asarray(data, dtype=complex).copy()
        if self._data.ndim == 1:
            self._data = np.outer(self._data, self._data.conj())
        if self._data.ndim != 2 or self._data.shape[0] != self._data.shape[1]:
            raise SimulatorError("density matrix must be square")
        dim = self._data.shape[0]
        num_qubits = int(round(math.log2(dim))) if dim > 0 else -1
        if num_qubits < 0 or 2**num_qubits != dim:
            raise SimulatorError(f"dimension {dim} is not a power of two")
        self._num_qubits = num_qubits
        if validate:
            if abs(float(np.trace(self._data).real) - 1.0) > 1e-6:
                raise SimulatorError("density matrix trace is not one")
            if not np.allclose(self._data, self._data.conj().T, atol=1e-8):
                raise SimulatorError("density matrix is not Hermitian")

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        """The pure |0...0><0...0| state."""
        dim = 2**num_qubits
        data = np.zeros((dim, dim), dtype=complex)
        data[0, 0] = 1.0
        return cls(data, validate=False)

    @classmethod
    def from_instruction(cls, circuit: QuantumCircuit) -> "DensityMatrix":
        """Evolve |0...0> by a unitary-only circuit."""
        return cls.zero_state(circuit.num_qubits).evolve(circuit)

    @property
    def data(self) -> np.ndarray:
        """The density matrix array."""
        return self._data

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension."""
        return self._data.shape[0]

    # -- evolution ------------------------------------------------------------

    def _apply_unitary(self, matrix, qargs) -> np.ndarray:
        """rho -> U rho U+ applied on ``qargs``.

        Both sides go through the specialized kernels: the left product
        treats rho's columns as a batch, the right product is the conjugated
        left product of the transpose.
        """
        from repro.simulators import kernels

        rho = kernels.apply_unitary(
            self._data, matrix, list(qargs), self._num_qubits
        )
        # Right-multiplication by U+ = conjugate applied to the transposed rho.
        rho = kernels.apply_unitary(
            rho.conj().T, matrix, list(qargs), self._num_qubits, mutate=True
        ).conj().T
        return rho

    def evolve(self, operation, qargs=None) -> "DensityMatrix":
        """Apply a gate, matrix, circuit, or Kraus channel.

        A Kraus channel is supplied as a list of matrices ``[K_0, K_1, ...]``.
        A circuit must hold only unconditioned gates (and barriers).
        """
        if isinstance(operation, QuantumCircuit):
            from repro.simulators.program import Program

            program = Program(operation)
            program.require_unitary("cannot evolve density matrix by '{}'")
            state = self
            for step in program.gates:
                state = state.evolve(step.matrix(), qargs=step.targets)
            return state
        if isinstance(operation, Gate):
            operation = operation.to_matrix()
        if isinstance(operation, (list, tuple)):
            return self.apply_channel(operation, qargs)
        matrix = np.asarray(operation, dtype=complex)
        if qargs is None:
            qargs = list(range(self._num_qubits))
        fresh = DensityMatrix.__new__(DensityMatrix)
        fresh._num_qubits = self._num_qubits
        fresh._data = self._apply_unitary(matrix, qargs)
        return fresh

    def apply_channel(self, kraus_ops, qargs=None) -> "DensityMatrix":
        """Apply a CPTP channel given by Kraus operators on ``qargs``."""
        if qargs is None:
            qargs = list(range(self._num_qubits))
        from repro.simulators import kernels

        qargs = list(qargs)
        total = np.zeros_like(self._data)
        for kraus in kraus_ops:
            kraus = np.asarray(kraus, dtype=complex)
            term = kernels.apply_unitary(
                self._data, kraus, qargs, self._num_qubits
            )
            term = kernels.apply_unitary(
                term.conj().T, kraus, qargs, self._num_qubits, mutate=True
            ).conj().T
            total += term
        fresh = DensityMatrix.__new__(DensityMatrix)
        fresh._num_qubits = self._num_qubits
        fresh._data = total
        return fresh

    # -- measurement ------------------------------------------------------------

    def probabilities(self, qargs=None) -> np.ndarray:
        """Diagonal measurement probabilities, optionally marginalized."""
        from repro.quantum_info.statevector import Statevector

        diag = np.real(np.diag(self._data)).clip(min=0.0)
        helper = Statevector.__new__(Statevector)
        helper._data = np.sqrt(diag)
        helper._num_qubits = self._num_qubits
        return helper.probabilities(qargs)

    def probabilities_dict(self, qargs=None) -> dict:
        """Probabilities keyed by bitstring."""
        probs = self.probabilities(qargs)
        width = self._num_qubits if qargs is None else len(list(qargs))
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > 1e-12
        }

    def sample_counts(self, shots: int, seed=None) -> dict:
        """Sample measurement outcomes from the diagonal.

        All shots are drawn with one vectorized ``searchsorted`` over the
        cumulative distribution and binned with ``np.unique`` — same
        scheme as ``Statevector.sample_counts`` and the qasm simulator's
        sampling path.
        """
        rng = np.random.default_rng(seed)
        cdf = np.cumsum(self.probabilities())
        outcomes = np.searchsorted(
            cdf, rng.random(shots) * cdf[-1], side="right"
        )
        np.minimum(outcomes, self.dim - 1, out=outcomes)
        width = self._num_qubits
        unique, tallies = np.unique(outcomes, return_counts=True)
        return {
            format(int(outcome), f"0{width}b"): int(tally)
            for outcome, tally in zip(unique, tallies)
        }

    # -- functionals --------------------------------------------------------------

    def expectation_value(self, operator, qargs=None) -> complex:
        """Tr(rho O) with O acting on ``qargs``."""
        if hasattr(operator, "to_matrix"):
            operator = operator.to_matrix()
        matrix = np.asarray(operator, dtype=complex)
        if qargs is None:
            num_targets = int(round(math.log2(matrix.shape[0])))
            qargs = list(range(num_targets))
        from repro.simulators import kernels

        evolved = kernels.apply_unitary(
            self._data, matrix, list(qargs), self._num_qubits
        )
        return complex(np.trace(evolved))

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states."""
        return float(np.real(np.trace(self._data @ self._data)))

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.allclose(self._data, other._data)
        )

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"
