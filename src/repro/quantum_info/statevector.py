"""Pure-state representation (Sec. V-A of the paper).

A :class:`Statevector` holds the ``2**n`` complex amplitudes of an ``n``-qubit
pure state in little-endian order and supports evolution by gates and
circuits, sampling, expectation values, and probability queries.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.matrix_utils import allclose_up_to_global_phase
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError


class Statevector:
    """An ``n``-qubit pure quantum state."""

    def __init__(self, data, validate=True):
        self._data = np.asarray(data, dtype=complex).ravel().copy()
        dim = self._data.shape[0]
        num_qubits = int(round(math.log2(dim))) if dim > 0 else -1
        if num_qubits < 0 or 2**num_qubits != dim:
            raise SimulatorError(f"statevector dimension {dim} is not a power of two")
        self._num_qubits = num_qubits
        if validate and abs(float(np.vdot(self._data, self._data).real) - 1.0) > 1e-8:
            raise SimulatorError("statevector is not normalized")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a product state from a label like ``'010'`` or ``'+-01'``.

        The label reads left to right from the highest qubit to qubit 0,
        matching the string keys of measurement counts.
        """
        single = {
            "0": np.array([1, 0], dtype=complex),
            "1": np.array([0, 1], dtype=complex),
            "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
            "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
            "r": np.array([1, 1j], dtype=complex) / math.sqrt(2),
            "l": np.array([1, -1j], dtype=complex) / math.sqrt(2),
        }
        state = np.array([1.0 + 0.0j])
        for char in label:
            if char not in single:
                raise SimulatorError(f"unknown state label character '{char}'")
            state = np.kron(state, single[char])
        return cls(state)

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        """The all-zeros computational basis state |0...0>."""
        data = np.zeros(2**num_qubits, dtype=complex)
        data[0] = 1.0
        return cls(data)

    @classmethod
    def from_instruction(cls, circuit: QuantumCircuit) -> "Statevector":
        """Evolve |0...0> by ``circuit`` (must be unitary-only)."""
        return cls.zero_state(circuit.num_qubits).evolve(circuit)

    # -- accessors -------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The amplitude vector (a copy is *not* made; treat as read-only)."""
        return self._data

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return self._data.shape[0]

    def __getitem__(self, index):
        return self._data[index]

    # -- evolution ---------------------------------------------------------------

    def evolve(self, operation, qargs=None) -> "Statevector":
        """Return the state after applying a gate, matrix, or circuit.

        Args:
            operation: a :class:`Gate`, a dense matrix, or a
                :class:`QuantumCircuit` containing only unconditioned gates
                (and barriers, which are skipped); anything else in a
                circuit raises :class:`SimulatorError`.
            qargs: target qubit indices for gate/matrix operations; defaults
                to all qubits in order.
        """
        from repro.simulators import kernels

        if isinstance(operation, QuantumCircuit):
            from repro.simulators.program import Program

            if qargs is not None:
                raise SimulatorError("qargs not supported for circuit evolution")
            program = Program(operation)
            program.require_unitary("cannot evolve by non-unitary operation '{}'")
            # A copy: the kernels update their owned buffer in place.
            state = kernels.apply_steps(self._data.copy(), program.gates,
                                        self._num_qubits)
            return Statevector(state, validate=False)
        if isinstance(operation, Gate):
            matrix = operation.to_matrix()
        else:
            matrix = np.asarray(operation, dtype=complex)
        if qargs is None:
            qargs = list(range(self._num_qubits))
        new_data = kernels.apply_unitary(
            self._data, matrix, list(qargs), self._num_qubits
        )
        return Statevector(new_data, validate=False)

    # -- measurement ---------------------------------------------------------------

    def probabilities(self, qargs=None) -> np.ndarray:
        """Measurement probabilities, optionally marginalized onto ``qargs``."""
        probs = np.abs(self._data) ** 2
        if qargs is None:
            return probs
        qargs = list(qargs)
        tensor = probs.reshape((2,) * self._num_qubits)
        keep_axes = [self._num_qubits - 1 - q for q in qargs]
        sum_axes = tuple(
            axis for axis in range(self._num_qubits) if axis not in keep_axes
        )
        marginal = tensor.sum(axis=sum_axes) if sum_axes else tensor
        # Reorder remaining axes so the flattened index has qargs[0] as its
        # least-significant bit (i.e. most-significant axis = qargs[-1]).
        remaining = [axis for axis in range(self._num_qubits) if axis in keep_axes]
        desired = [self._num_qubits - 1 - q for q in reversed(qargs)]
        order = [remaining.index(axis) for axis in desired]
        marginal = np.transpose(marginal, order)
        return marginal.ravel()

    def probabilities_dict(self, qargs=None) -> dict:
        """Probabilities keyed by bitstring (qubit ``n-1`` leftmost)."""
        probs = self.probabilities(qargs)
        width = self._num_qubits if qargs is None else len(list(qargs))
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > 1e-12
        }

    def sample_counts(self, shots: int, seed=None) -> dict:
        """Sample measurement outcomes; returns a bitstring histogram.

        All shots are drawn with one vectorized ``searchsorted`` over the
        cumulative distribution and binned with ``np.unique``.
        """
        rng = np.random.default_rng(seed)
        probs = self._data.real**2 + self._data.imag**2
        cdf = np.cumsum(probs)
        outcomes = np.searchsorted(cdf, rng.random(shots) * cdf[-1], side="right")
        np.minimum(outcomes, self.dim - 1, out=outcomes)
        width = self._num_qubits
        unique, tallies = np.unique(outcomes, return_counts=True)
        return {
            format(int(outcome), f"0{width}b"): int(tally)
            for outcome, tally in zip(unique, tallies)
        }

    def measure(self, seed=None) -> tuple[str, "Statevector"]:
        """Sample one outcome and return (bitstring, collapsed state)."""
        rng = np.random.default_rng(seed)
        probs = np.abs(self._data) ** 2
        probs = probs / probs.sum()
        outcome = int(rng.choice(self.dim, p=probs))
        collapsed = np.zeros_like(self._data)
        collapsed[outcome] = 1.0
        return format(outcome, f"0{self._num_qubits}b"), Statevector(collapsed)

    # -- linear algebra ----------------------------------------------------------------

    def expectation_value(self, operator, qargs=None) -> complex:
        """<psi| O |psi> for an operator matrix or Gate on ``qargs``."""
        if isinstance(operator, Gate):
            matrix = operator.to_matrix()
        elif hasattr(operator, "to_matrix"):
            matrix = operator.to_matrix()
        else:
            matrix = np.asarray(operator, dtype=complex)
        if qargs is None:
            num_targets = int(round(math.log2(matrix.shape[0])))
            qargs = list(range(num_targets))
        from repro.simulators import kernels

        evolved = kernels.apply_unitary(
            self._data, matrix, list(qargs), self._num_qubits
        )
        return complex(np.vdot(self._data, evolved))

    def inner(self, other: "Statevector") -> complex:
        """<self|other>."""
        return complex(np.vdot(self._data, other._data))

    def tensor(self, other: "Statevector") -> "Statevector":
        """Kronecker product ``self ⊗ other`` (other occupies low qubits)."""
        return Statevector(np.kron(self._data, other._data), validate=False)

    def equiv(self, other, atol=1e-8) -> bool:
        """State equality up to global phase."""
        other_data = other._data if isinstance(other, Statevector) else other
        return allclose_up_to_global_phase(self._data, other_data, atol=atol)

    def to_density_matrix(self):
        """Return the pure-state density matrix |psi><psi|."""
        from repro.quantum_info.density_matrix import DensityMatrix

        return DensityMatrix(np.outer(self._data, self._data.conj()))

    def __eq__(self, other):
        if not isinstance(other, Statevector):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.allclose(self._data, other._data)
        )

    def __repr__(self):
        return f"Statevector({np.array2string(self._data, max_line_width=120)})"
