"""Exact noisy simulation via density matrices.

Where the trajectory-based :class:`~repro.simulators.qasm_simulator.QasmSimulator`
samples noise, this backend applies every channel exactly, so expectation
values and probabilities are deterministic — the right tool for the paper's
"observe the effect of noise" workflow and for Ignis-style fits.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError
from repro.quantum_info.density_matrix import DensityMatrix


class DensityMatrixSimulator:
    """Evolves a density matrix through a circuit with exact noise."""

    name = "density_matrix_simulator"

    def __init__(self, max_qubits: int = 10):
        self._max_qubits = max_qubits

    def run(self, circuit: QuantumCircuit, noise_model=None) -> DensityMatrix:
        """Return the final density matrix (measurements must be terminal)."""
        num_qubits = circuit.num_qubits
        if num_qubits == 0:
            raise SimulatorError("circuit has no qubits")
        if num_qubits > self._max_qubits:
            raise SimulatorError(
                f"{num_qubits} qubits exceeds the density-matrix limit "
                f"({self._max_qubits})"
            )
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        state = DensityMatrix.zero_state(num_qubits)
        measured: set = set()
        for item in circuit.data:
            op = item.operation
            if op.name == "barrier":
                continue
            if op.name == "measure":
                measured.add(item.qubits[0])
                continue
            if op.condition is not None or op.name == "reset":
                raise SimulatorError(
                    f"'{op.name}' with conditions/reset requires the qasm "
                    "simulator"
                )
            if any(q in measured for q in item.qubits):
                raise SimulatorError("mid-circuit measurement not supported")
            if not isinstance(op, Gate):
                raise SimulatorError(f"cannot simulate '{op.name}'")
            targets = [qubit_index[q] for q in item.qubits]
            state = state.evolve(op.to_matrix(), qargs=targets)
            if noise_model is not None:
                error = noise_model.gate_error(op.name, targets)
                if error is not None:
                    state = state.apply_channel(error.kraus_operators, targets)
        return state

    def counts(self, circuit: QuantumCircuit, shots: int = 1024, seed=None,
               noise_model=None) -> dict:
        """Sample counts from the exact final distribution.

        Readout errors from ``noise_model`` are applied bit-wise to each
        sampled outcome.  Keys cover all classical bits, clbit 0 rightmost.
        Returns ``{"counts", "shots", "density_matrix"}``: the matrix is
        the one evolved state every shot is drawn from.
        """
        if circuit.num_clbits == 0:
            raise SimulatorError("counts need classical bits; add measurements")
        state = self.run(circuit, noise_model=noise_model)
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
        qubit_to_clbit = {}
        for item in circuit.data:
            if item.operation.name == "measure":
                qubit_to_clbit[qubit_index[item.qubits[0]]] = clbit_index[
                    item.clbits[0]
                ]
        probs = state.probabilities()
        probs = probs / probs.sum()
        counts = self._sample_counts(
            probs, qubit_to_clbit, circuit.num_clbits, shots,
            np.random.default_rng(seed), noise_model,
        )
        return {"counts": counts, "shots": shots, "density_matrix": state}

    @staticmethod
    def _sample_counts(probs, qubit_to_clbit, width, shots, rng,
                       noise_model) -> dict:
        """Counts of ``shots`` outcomes sampled from ``probs``.

        The per-outcome loop stays scalar on purpose: readout errors draw
        from the generator per measured bit, and that consumption order
        is part of the seeded contract.
        """
        counts: dict[str, int] = {}
        outcomes = rng.choice(len(probs), size=shots, p=probs)
        for outcome in outcomes:
            value = 0
            for qubit, clbit in qubit_to_clbit.items():
                bit = (int(outcome) >> qubit) & 1
                if noise_model is not None:
                    readout = noise_model.readout_error(qubit)
                    if readout is not None:
                        bit = readout.sample(bit, rng)
                if bit:
                    value |= 1 << clbit
            key = format(value, f"0{width}b")
            counts[key] = counts.get(key, 0) + 1
        return counts
