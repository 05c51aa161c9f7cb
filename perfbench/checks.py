"""Independent output checks, run after the timed section.

The references are dense statevectors from ``repro.quantum_info`` and plain
numpy; none of them goes through the transpiler, the executor or the
simulators under test.  Dense unitaries are never built: the equivalence
check evolves seeded product states, which stays vector-sized at 16 qubits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.quantum_info.statevector import Statevector

#: Instructions that are not gates.
_DIRECTIVES = ("measure", "barrier")


def _indices(circuit):
    qubits = {bit: index for index, bit in enumerate(circuit.qubits)}
    clbits = {bit: index for index, bit in enumerate(circuit.clbits)}
    return qubits, clbits


def terminal_measures(circuit: QuantumCircuit):
    """``{clbit: qubit}`` when every measurement is the last operation on
    its qubit, else None (a measured qubit is reused, e.g. moved by a
    routing SWAP)."""
    qubits, clbits = _indices(circuit)
    measured = {}
    for item in circuit.data:
        name = item.operation.name
        if name == "barrier":
            continue
        wires = [qubits[bit] for bit in item.qubits]
        if name == "measure":
            measured[clbits[item.clbits[0]]] = wires[0]
        elif any(wire in measured.values() for wire in wires):
            return None
    return measured


def final_state(circuit: QuantumCircuit, prep: dict):
    """Amplitudes after ``u3(*prep[q])`` on each qubit ``q`` in ``prep`` and
    then the circuit's gates (measures left out)."""
    qubits, _ = _indices(circuit)
    evolved = QuantumCircuit(circuit.num_qubits)
    for qubit, angles in prep.items():
        evolved.u3(*angles, qubit)
    for item in circuit.data:
        if item.operation.name not in _DIRECTIVES:
            evolved.append(item.operation,
                           [qubits[bit] for bit in item.qubits])
    return Statevector.from_instruction(evolved).data


def clbit_distribution(state, clbit_qubit: dict, num_clbits: int):
    """Exact probability of every classical outcome (clbit 0 = bit 0)."""
    probabilities = np.abs(state) ** 2
    index = np.arange(probabilities.size)
    outcome = np.zeros(probabilities.size, dtype=np.int64)
    for clbit, qubit in clbit_qubit.items():
        outcome |= ((index >> qubit) & 1) << clbit
    return np.bincount(outcome, weights=probabilities,
                       minlength=2**num_clbits)


def _permute(state, perm):
    """Move the content of wire ``s`` to wire ``perm[s]``."""
    index = np.arange(state.size)
    destination = np.zeros(state.size, dtype=np.int64)
    for source, target in enumerate(perm):
        destination |= ((index >> source) & 1) << target
    moved = np.empty_like(state)
    moved[destination] = state
    return moved


def compiled_matches(original: QuantumCircuit, compiled: QuantumCircuit,
                     rng: np.random.Generator, trials: int = 2) -> bool:
    """Check ``compiled`` implements ``original`` up to layout.

    On ``trials`` seeded random product states, the final state (measures
    left out) must equal the original's under the compiler's initial
    layout and final wire permutation, up to global phase.  When every
    measurement in ``compiled`` is terminal, the exact distribution over
    classical bits must match as well; otherwise each classical bit must
    still be written exactly once.
    """
    width = compiled.num_qubits
    layout = getattr(compiled, "initial_layout", None)
    targets = (
        [layout.physical(bit) for bit in original.qubits]
        if layout is not None else list(range(original.num_qubits))
    )
    perm = getattr(compiled, "final_permutation", None) or list(range(width))
    wanted_bits = {
        clbit: targets[qubit]
        for clbit, qubit in terminal_measures(original).items()
    }
    got_bits = terminal_measures(compiled)
    if got_bits is None:
        written = [
            item.clbits[0] for item in compiled.data
            if item.operation.name == "measure"
        ]
        if len(written) != len(set(written)) or len(written) != len(
            wanted_bits
        ):
            return False
    # The original's gates on the layout's wires of the device.
    embedded = QuantumCircuit(width, original.num_clbits)
    embedded.compose(original, qubits=targets,
                     clbits=list(range(original.num_clbits)), inplace=True)
    for _ in range(trials):
        angles = rng.uniform(0.0, 2 * np.pi, size=(len(targets), 3))
        prep = {targets[q]: tuple(angles[q]) for q in range(len(targets))}
        want = final_state(embedded, prep)
        got = final_state(compiled, prep)
        if abs(abs(np.vdot(_permute(want, perm), got)) - 1.0) > 1e-6:
            return False
        if got_bits is not None and not np.allclose(
            clbit_distribution(want, wanted_bits, original.num_clbits),
            clbit_distribution(got, got_bits, compiled.num_clbits),
            atol=1e-9,
        ):
            return False
    return True


def on_device(compiled: QuantumCircuit, coupling, basis) -> bool:
    """Only basis gates remain and every CX runs along a device edge."""
    qubits, _ = _indices(compiled)
    allowed = set(basis) | set(_DIRECTIVES)
    for item in compiled.data:
        name = item.operation.name
        if name not in allowed:
            return False
        if name == "cx":
            control, target = (qubits[bit] for bit in item.qubits)
            if not coupling.has_edge(control, target):
                return False
    return True


def calibrated_success(compiled: QuantumCircuit, properties) -> float:
    """Probability that no gate or readout fails, from the calibrations."""
    qubits, _ = _indices(compiled)
    success = 1.0
    for item in compiled.data:
        name = item.operation.name
        wires = tuple(qubits[bit] for bit in item.qubits)
        if name == "barrier":
            continue
        if name == "measure":
            error = properties.readout_error(wires[0])
        else:
            error = properties.gate_error(name, wires)
        success *= 1.0 - (error or 0.0)
    return success


def ideal_distribution(circuit: QuantumCircuit):
    """Exact outcome probabilities of a circuit whose measures are terminal."""
    return clbit_distribution(final_state(circuit, {}),
                              terminal_measures(circuit), circuit.num_clbits)


def counts_vector(counts: dict, num_clbits: int):
    """Counts keyed by bitstring (clbit 0 rightmost) as a dense vector."""
    vector = np.zeros(2**num_clbits)
    for key, value in counts.items():
        vector[int(key, 2)] += value
    return vector


def _bernoulli_divergence(frequency: float, p: float) -> float:
    """Kullback-Leibler divergence of Bernoulli(``frequency``) from
    Bernoulli(``p``)."""
    total = 0.0
    for observed, expected in ((frequency, p), (1.0 - frequency, 1.0 - p)):
        if observed > 0.0:
            if expected <= 0.0:
                return math.inf
            total += observed * math.log(observed / expected)
    return total


def marginals_within(counts: dict, probabilities, num_clbits: int,
                     shots: int, sigmas: float = 5.0) -> bool:
    """Every per-bit frequency lies within ``sigmas`` of its probability.

    The distance is the binomial deviance, ``sqrt(2 * shots * KL)``, which
    equals ``|frequency - p| / sigma`` near ``p = 0.5`` and stays right
    where that normal approximation fails: for a bit that is 1 with
    ``p = 0.99997``, 3 zeros in 8192 shots (0.2 expected; about one round
    in 760) read as 6.0 sigma, and as 3.2 by the deviance.
    """
    observed = counts_vector(counts, num_clbits)
    outcome = np.arange(observed.size)
    for clbit in range(num_clbits):
        ones = ((outcome >> clbit) & 1).astype(bool)
        p = min(max(float(probabilities[ones].sum()), 0.0), 1.0)
        frequency = observed[ones].sum() / shots
        deviance = 2.0 * shots * _bernoulli_divergence(frequency, p)
        if deviance > sigmas**2 + 1e-9:
            return False
    return True


def hellinger_fidelity(counts: dict, probabilities, num_clbits: int) -> float:
    observed = counts_vector(counts, num_clbits)
    observed = observed / observed.sum()
    return float(np.sum(np.sqrt(observed * probabilities)) ** 2)


@functools.lru_cache(maxsize=None)
def _pauli_matrix(pauli):
    return pauli.to_matrix()


def pauli_energy(state, hamiltonian, shots: int):
    """Exact ``<H>`` and the std dev of a ``shots``-per-term estimate."""
    energy = 0.0
    variance = 0.0
    for coeff, pauli in hamiltonian.terms:
        value = float(np.real(np.vdot(state, _pauli_matrix(pauli) @ state)))
        energy += float(np.real(coeff)) * value
        if pauli.support:
            variance += float(np.real(coeff)) ** 2 * (1.0 - value**2) / shots
    return energy, float(np.sqrt(max(variance, 0.0)))
