"""Exact noisy simulation via density matrices.

Where the trajectory-based :class:`~repro.simulators.qasm_simulator.QasmSimulator`
samples noise, this backend applies every channel exactly, so expectation
values and probabilities are deterministic — the right tool for the paper's
"observe the effect of noise" workflow and for Ignis-style fits.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError
from repro.quantum_info.density_matrix import DensityMatrix
from repro.simulators.program import Program


class DensityMatrixSimulator:
    """Evolves a density matrix through a circuit with exact noise."""

    name = "density_matrix_simulator"

    def __init__(self, max_qubits: int = 10):
        self._max_qubits = max_qubits

    def run(self, circuit: QuantumCircuit, noise_model=None) -> DensityMatrix:
        """Return the final density matrix (measurements must be terminal).

        Each gate step's matrix applies, then its error's channel.
        ``circuit`` may also be the program :meth:`counts` lowered with
        the run's noise model.
        """
        program = (circuit if isinstance(circuit, Program)
                   else self._lower(circuit, noise_model))
        state = DensityMatrix.zero_state(program.num_qubits)
        for step in program.gates:
            state = state.evolve(step.matrix(), qargs=step.targets)
            if step.error is not None:
                state = state.apply_channel(step.error.kraus_operators,
                                            step.targets)
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
        program = self._lower(circuit, noise_model)
        state = self.run(program)
        probs = state.probabilities()
        probs = probs / probs.sum()
        counts = self._sample_counts(
            probs, program.measures, circuit.num_clbits, shots,
            np.random.default_rng(seed), noise_model,
        )
        return {"counts": counts, "shots": shots, "density_matrix": state}

    def _lower(self, circuit, noise_model) -> Program:
        """The circuit's program, refused unless its measurements are
        terminal and it holds nothing but gates."""
        if circuit.num_qubits == 0:
            raise SimulatorError("circuit has no qubits")
        if circuit.num_qubits > self._max_qubits:
            raise SimulatorError(
                f"{circuit.num_qubits} qubits exceeds the density-matrix "
                f"limit ({self._max_qubits})"
            )
        program = Program(circuit, noise_model)
        program.require_static()
        return program

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
