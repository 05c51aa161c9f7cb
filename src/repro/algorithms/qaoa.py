"""QAOA for MaxCut — the optimization application class of Aqua.

Builds the standard alternating cost/mixer ansatz: cost layers are ZZ
rotations over the graph's edges (native ``rzz`` decomposes to CX + RZ +
CX), the mixer is a transverse RX layer.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.optimizers import BatchableObjective, COBYLA, Optimizer
from repro.circuit.parameter import Parameter
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import AlgorithmError
from repro.primitives import EstimatorV2
from repro.quantum_info.pauli import PauliSumOp
from repro.simulators.statevector_simulator import StatevectorSimulator


def maxcut_hamiltonian(edges, num_nodes: int) -> PauliSumOp:
    """Cost Hamiltonian whose minimum encodes the maximum cut.

    For each edge (i, j, w): w/2 (Z_i Z_j - I), so the energy equals minus
    the cut weight.
    """
    terms = []
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            weight = 1.0
        else:
            i, j, weight = edge
        label = ["I"] * num_nodes
        label[num_nodes - 1 - i] = "Z"
        label[num_nodes - 1 - j] = "Z"
        terms.append((weight / 2.0, "".join(label)))
        terms.append((-weight / 2.0, "I" * num_nodes))
    return PauliSumOp(terms)


def cut_value(bitstring: str, edges) -> float:
    """Weight of the cut given by a solution bitstring (bit 0 rightmost)."""
    total = 0.0
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            weight = 1.0
        else:
            i, j, weight = edge
        bit_i = bitstring[len(bitstring) - 1 - i]
        bit_j = bitstring[len(bitstring) - 1 - j]
        if bit_i != bit_j:
            total += weight
    return total


class QAOAResult:
    """Outcome of a QAOA run."""

    def __init__(self, best_bitstring, best_cut, eigenvalue, optimal_point,
                 counts):
        self.best_bitstring = best_bitstring
        self.best_cut = best_cut
        self.eigenvalue = eigenvalue
        self.optimal_point = optimal_point
        self.counts = counts

    def __repr__(self):
        return (
            f"QAOAResult(cut={self.best_cut}, "
            f"bitstring='{self.best_bitstring}')"
        )


class QAOA:
    """Quantum Approximate Optimization Algorithm for MaxCut."""

    def __init__(self, edges, num_nodes: int, reps: int = 2,
                 optimizer: Optimizer = None, seed=None):
        if num_nodes < 2:
            raise AlgorithmError("MaxCut needs at least two nodes")
        self.edges = list(edges)
        self.num_nodes = num_nodes
        self.reps = reps
        self.optimizer = optimizer or COBYLA(maxiter=300)
        self.seed = seed
        self.hamiltonian = maxcut_hamiltonian(self.edges, num_nodes)
        self._gammas = [Parameter(f"γ[{p}]") for p in range(reps)]
        self._betas = [Parameter(f"β[{p}]") for p in range(reps)]
        self._template = self._build_template()
        self._engine = StatevectorSimulator()
        self._estimator = EstimatorV2()

    def _build_template(self) -> QuantumCircuit:
        circuit = QuantumCircuit(self.num_nodes)
        for qubit in range(self.num_nodes):
            circuit.h(qubit)
        for layer in range(self.reps):
            gamma = self._gammas[layer]
            for edge in self.edges:
                i, j = edge[0], edge[1]
                weight = edge[2] if len(edge) > 2 else 1.0
                circuit.rzz(gamma * weight, i, j)
            beta = self._betas[layer]
            for qubit in range(self.num_nodes):
                circuit.rx(2.0 * beta, qubit)
        return circuit

    def bind(self, point) -> QuantumCircuit:
        """Instantiate the ansatz at one (gamma..., beta...) point."""
        point = list(point)
        if len(point) != 2 * self.reps:
            raise AlgorithmError(f"expected {2 * self.reps} parameters")
        binding = dict(zip(self._gammas, point[: self.reps]))
        binding.update(zip(self._betas, point[self.reps :]))
        return self._template.bind_parameters(binding)

    def energy(self, point) -> float:
        """Expectation of the cost Hamiltonian at one parameter point."""
        state = self._engine.run(self.bind(point))
        return self.hamiltonian.expectation(state)

    def energy_many(self, points) -> np.ndarray:
        """Cost expectations at a batch of (gamma..., beta...) points.

        The batch is one exact-mode
        :class:`~repro.primitives.EstimatorV2` pub over the template, so
        it evolves in one broadcast pass; entry ``b`` is bitwise identical
        to ``energy(points[b])``.
        """
        job = self._estimator.run([(
            self._template, self.hamiltonian, points,
            self._gammas + self._betas,
        )])
        return job.result()[0].data.evs

    def run(self, initial_point=None, shots: int = 4096) -> QAOAResult:
        """Optimize the angles, then sample candidate cuts."""
        rng = np.random.default_rng(self.seed)
        if initial_point is None:
            initial_point = rng.uniform(0, np.pi, size=2 * self.reps)
        objective = BatchableObjective(self.energy, self.energy_many)
        outcome = self.optimizer.optimize(objective, np.asarray(initial_point))
        final_state = self._engine.run(self.bind(outcome.x))
        counts = final_state.sample_counts(shots, seed=self.seed)
        best_bitstring = max(
            counts, key=lambda key: (cut_value(key, self.edges), counts[key])
        )
        return QAOAResult(
            best_bitstring,
            cut_value(best_bitstring, self.edges),
            outcome.fun,
            outcome.x,
            counts,
        )


def brute_force_maxcut(edges, num_nodes: int) -> tuple[float, str]:
    """Exact MaxCut by enumeration (reference for small graphs)."""
    best = (-1.0, "")
    for assignment in range(2**num_nodes):
        bits = format(assignment, f"0{num_nodes}b")
        value = cut_value(bits, edges)
        if value > best[0]:
            best = (value, bits)
    return best
