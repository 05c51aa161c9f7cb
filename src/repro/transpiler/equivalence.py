"""Equivalence checking of original vs. transpiled circuits.

A routed circuit acts on physical qubits: virtual qubit ``v`` enters at slot
``layout(v)`` and — because SWAPs permute wires — exits at slot
``perm[layout(v)]``.  The transpiled unitary ``V`` therefore satisfies

    V = P_perm @ embed(U, targets=[layout(v0), layout(v1), ...])

up to global phase, where ``P_perm`` moves every slot ``s`` to ``perm[s]``.
This module verifies that identity with dense matrices on small devices and
with statevectors of random product inputs on wide ones, the same style of
check used by DD-based equivalence checkers (paper Refs. [22], [33]).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.matrix_utils import (
    allclose_up_to_global_phase,
    apply_matrix,
)
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import TranspilerError
from repro.quantum_info.operator import Operator


def _strip_nonunitary(circuit: QuantumCircuit) -> QuantumCircuit:
    stripped = circuit.copy_empty_like()
    stripped.data = [
        item
        for item in circuit.data
        if item.operation.name not in ("measure", "barrier", "reset")
    ]
    return stripped


def permutation_matrix(perm) -> np.ndarray:
    """Unitary sending basis state bits from slot ``s`` to ``perm[s]``."""
    n = len(perm)
    dim = 2**n
    matrix = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        y = 0
        for s in range(n):
            if (x >> s) & 1:
                y |= 1 << perm[s]
        matrix[y, x] = 1.0
    return matrix


def permute_statevector(state, perm) -> np.ndarray:
    """Apply the bit permutation slot ``s`` -> ``perm[s]`` to a statevector."""
    n = len(perm)
    dim = 2**n
    indices = np.arange(dim)
    destination = np.zeros(dim, dtype=np.int64)
    for s in range(n):
        destination |= ((indices >> s) & 1) << perm[s]
    result = np.empty_like(np.asarray(state))
    result[destination] = state
    return result


def routed_equivalent(original: QuantumCircuit, transpiled: QuantumCircuit,
                      initial_layout=None, final_permutation=None,
                      atol=1e-8, trials=4, seed=7) -> bool:
    """Check a transpiled circuit implements the original up to layout.

    ``initial_layout``/``final_permutation`` default to the metadata
    :func:`repro.transpiler.transpile` attaches to its result.  For devices
    up to 10 qubits the full unitaries are compared; beyond that, ``trials``
    random product input states are evolved through both circuits
    (statevector spot-check), which is exponentially unlikely to miss a
    discrepancy while staying vector-sized.
    """
    if initial_layout is None:
        initial_layout = getattr(transpiled, "initial_layout", None)
    if final_permutation is None:
        final_permutation = getattr(transpiled, "final_permutation", None)
    num_physical = transpiled.num_qubits
    if initial_layout is None:
        if num_physical != original.num_qubits:
            raise TranspilerError(
                "no layout metadata and circuit widths differ"
            )
        targets = list(range(original.num_qubits))
    else:
        targets = [initial_layout.physical(q) for q in original.qubits]
    stripped_original = _strip_nonunitary(original)
    stripped_transpiled = _strip_nonunitary(transpiled)
    if num_physical <= 10:
        original_u = Operator.from_circuit(stripped_original).data
        transpiled_u = Operator.from_circuit(stripped_transpiled).data
        embedded = apply_matrix(
            np.eye(2**num_physical, dtype=complex),
            original_u,
            targets,
            num_physical,
        )
        if final_permutation is not None:
            expected = permutation_matrix(final_permutation) @ embedded
        else:
            expected = embedded
        return allclose_up_to_global_phase(transpiled_u, expected, atol=atol)
    # Large device: statevector spot-check on random product inputs.  The
    # original runs as a circuit on the layout's wires, so nothing
    # 2^w x 2^w is ever built.
    from repro.simulators.statevector_simulator import StatevectorSimulator

    embedded_original = QuantumCircuit(num_physical, original.num_clbits)
    embedded_original.compose(
        stripped_original, qubits=targets,
        clbits=list(range(original.num_clbits)), inplace=True,
    )
    rng = np.random.default_rng(seed)
    simulator = StatevectorSimulator(max_qubits=num_physical)
    perm = (
        list(final_permutation)
        if final_permutation is not None
        else list(range(num_physical))
    )
    for _ in range(trials):
        # Random product state on every physical wire.
        single = []
        for _ in range(num_physical):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            single.append(
                np.array(
                    [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)],
                    dtype=complex,
                )
            )
        state = np.array([1.0 + 0.0j])
        for amplitudes in reversed(single):  # qubit 0 varies fastest
            state = np.kron(state, amplitudes)
        out_transpiled = simulator.run(
            stripped_transpiled, initial_state=state
        ).data
        expected_state = simulator.run(
            embedded_original, initial_state=state
        ).data
        if perm != list(range(num_physical)):
            expected_state = permute_statevector(expected_state, perm)
        if not allclose_up_to_global_phase(
            out_transpiled, expected_state, atol=atol
        ):
            return False
    return True


def assert_routed_equivalent(original, transpiled, **kwargs) -> None:
    """Raise :class:`TranspilerError` when the circuits are inequivalent."""
    if not routed_equivalent(original, transpiled, **kwargs):
        raise TranspilerError(
            "transpiled circuit is NOT equivalent to the original"
        )
