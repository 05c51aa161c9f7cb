"""Full-unitary simulation: builds the circuit's ``2**n x 2**n`` matrix."""

from __future__ import annotations

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError
from repro.quantum_info.operator import Operator


class UnitarySimulator:
    """Computes the unitary matrix realized by a gate-only circuit."""

    name = "unitary_simulator"

    def __init__(self, max_qubits: int = 12):
        self._max_qubits = max_qubits

    def run(self, circuit: QuantumCircuit) -> Operator:
        """Return the circuit unitary as an :class:`Operator`.

        A measurement, reset or classically conditioned gate raises
        :class:`SimulatorError`, as in :meth:`Operator.from_circuit`.
        """
        if circuit.num_qubits > self._max_qubits:
            raise SimulatorError(
                f"{circuit.num_qubits} qubits exceeds the unitary limit "
                f"({self._max_qubits})"
            )
        return Operator.from_circuit(circuit)
