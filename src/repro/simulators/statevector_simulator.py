"""Ideal statevector simulation — the workhorse array-based simulator.

Implements exactly the scheme of Sec. V-A: simulation "boils down to a
sequence of matrix-vector multiplications", with the vector stored densely
(2**n amplitudes).  The circuit is lowered once into a
:class:`~repro.simulators.program.Program` and its gate steps run as one
row through :func:`repro.simulators.kernels.apply_steps`.  The
decision-diagram simulator in :mod:`repro.simulators.dd_simulator` is the
paper's improved alternative.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError
from repro.quantum_info.statevector import Statevector
from repro.simulators import kernels
from repro.simulators.program import Program


class StatevectorSimulator:
    """Evolves |0...0> through a unitary-only circuit."""

    name = "statevector_simulator"

    def __init__(self, max_qubits: int = 24):
        self._max_qubits = max_qubits

    def run(self, circuit: QuantumCircuit, initial_state=None) -> Statevector:
        """Simulate ``circuit`` and return the final state.

        Barriers are skipped; trailing measurements (nothing after them on
        any qubit) are ignored so circuits written for shot-based backends
        also run here.  Mid-circuit measurement, reset, or classical
        conditions raise :class:`SimulatorError`.
        """
        num_qubits = circuit.num_qubits
        if num_qubits == 0:
            raise SimulatorError("cannot simulate a circuit with no qubits")
        if num_qubits > self._max_qubits:
            raise SimulatorError(
                f"{num_qubits} qubits exceeds the dense-array limit "
                f"({self._max_qubits}); consider the DD simulator"
            )
        if initial_state is None:
            state = np.zeros(2**num_qubits, dtype=complex)
            state[0] = 1.0
        else:
            init = (
                initial_state.data
                if isinstance(initial_state, Statevector)
                else np.asarray(initial_state, dtype=complex)
            )
            if init.shape != (2**num_qubits,):
                raise SimulatorError("initial state has the wrong dimension")
            state = init.copy()
        program = Program(circuit)
        program.require_static()
        state = kernels.apply_steps(state, program.gates, num_qubits)
        return Statevector(state, validate=False)

    def run_batch(self, circuit: QuantumCircuit, parameter_values,
                  parameters=None) -> list[Statevector]:
        """Evolve one parameterized template at a batch of value sets.

        Row ``b`` of ``parameter_values`` (columns ordered like
        ``parameters``, or sorted by name when omitted) yields a state
        bitwise identical to ``self.run(circuit.bind_parameters(row))`` —
        the broadcast engine applies each binding-independent gate across
        the whole batch in one vectorized kernel pass.
        """
        from repro.simulators.batched import evolve_broadcast

        if circuit.num_qubits > self._max_qubits:
            raise SimulatorError(
                f"{circuit.num_qubits} qubits exceeds the dense-array limit "
                f"({self._max_qubits}); consider the DD simulator"
            )
        states = evolve_broadcast(circuit, parameter_values, parameters)
        return [Statevector(row, validate=False) for row in states]
