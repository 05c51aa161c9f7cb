"""Every statevector entry point against the ``apply_matrix`` reference.

Every entry point runs one lowered program through one step dispatch, so
on seeded random circuits:

* each agrees with a gate-by-gate ``apply_matrix`` reference within 1e-12,
  with the kernels on and under ``kernels.disabled()``;
* ``StatevectorSimulator.run``, a one-row ``evolve_broadcast`` and
  ``Statevector.from_instruction`` are bitwise equal (one row, one
  arithmetic);
* each of ``B`` broadcast rows is bitwise equal to its own one-row run.

Runs under the CHAOS_SEED sweep in CI: each seed draws other circuits,
bindings and widths (default seed 7).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.circuit import Parameter, QuantumCircuit
from repro.circuit.library import standard_gates as sg
from repro.circuit.matrix_utils import apply_matrix
from repro.quantum_info import DensityMatrix, Operator, Statevector
from repro.quantum_info.random import random_unitary
from repro.simulators import (
    DensityMatrixSimulator,
    StatevectorSimulator,
    UnitarySimulator,
    kernels,
)
from repro.simulators.batched import evolve_broadcast

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

#: (gate class, qubits, angles): every step kind — diagonal, permutation,
#: controlled, dense on adjacent or scattered targets.
GATES = (
    (sg.HGate, 1, 0), (sg.SXGate, 1, 0), (sg.TGate, 1, 0), (sg.YGate, 1, 0),
    (sg.RXGate, 1, 1), (sg.RZGate, 1, 1), (sg.U2Gate, 1, 2),
    (sg.U3Gate, 1, 3), (sg.CXGate, 2, 0), (sg.CZGate, 2, 0),
    (sg.CYGate, 2, 0), (sg.CHGate, 2, 0), (sg.SwapGate, 2, 0),
    (sg.CRXGate, 2, 1), (sg.CRYGate, 2, 1), (sg.CU1Gate, 2, 1),
    (sg.CU3Gate, 2, 3), (sg.RZZGate, 2, 1), (sg.RXXGate, 2, 1),
    (sg.RYYGate, 2, 1), (sg.CCXGate, 3, 0), (sg.CSwapGate, 3, 0),
)

#: Gates the broadcast engine binds per row when their angle is free.
ANGLED = (sg.RXGate, sg.RZGate, sg.U3Gate, sg.CRXGate, sg.CRYGate,
          sg.CU1Gate, sg.RZZGate, sg.RXXGate)


def random_gate_circuit(rng, num_qubits, size, free=False):
    """Random gates of every kind, fused diagonals and random unitaries
    (up to four qubits) included; with ``free``, some angles are
    parameters.  Returns ``(circuit, parameters)``."""
    circuit = QuantumCircuit(num_qubits)
    parameters = []
    for _ in range(size):
        pick = int(rng.integers(len(GATES) + 3))
        if pick >= len(GATES):
            width = int(rng.integers(1, min(num_qubits, 4) + 1))
            qubits = [int(q) for q in
                      rng.choice(num_qubits, width, replace=False)]
            if pick == len(GATES):
                circuit.append(sg.DiagonalGate(
                    np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << width))
                ), qubits)
            elif pick == len(GATES) + 1:
                circuit.append(sg.UnitaryGate(random_unitary(
                    width, seed=int(rng.integers(2**31))
                )), qubits)
            else:
                circuit.barrier()
            continue
        cls, width, count = GATES[pick]
        if width > num_qubits:
            continue
        qubits = [int(q) for q in rng.choice(num_qubits, width, replace=False)]
        angles = [float(a) for a in rng.uniform(-np.pi, np.pi, count)]
        if free and cls in ANGLED and rng.random() < 0.6:
            angles[0] = Parameter(f"p{len(parameters)}")
            parameters.append(angles[0])
        circuit.append(cls(*angles), qubits)
    return circuit, parameters


def reference_state(circuit, num_qubits=None):
    """Gate by gate through ``apply_matrix``."""
    num_qubits = circuit.num_qubits if num_qubits is None else num_qubits
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    for item in circuit.data:
        if item.operation.name == "barrier":
            continue
        targets = [circuit.find_bit(q) for q in item.qubits]
        state = apply_matrix(state, item.operation.to_matrix(), targets,
                             num_qubits)
    return state


def reference_unitary(circuit):
    dim = 1 << circuit.num_qubits
    unitary = np.eye(dim, dtype=complex)
    for item in circuit.data:
        if item.operation.name == "barrier":
            continue
        targets = [circuit.find_bit(q) for q in item.qubits]
        unitary = apply_matrix(unitary, item.operation.to_matrix(), targets,
                               circuit.num_qubits)
    return unitary


def cases(count, widths=(1, 9), size=(4, 40)):
    rng = np.random.default_rng([CHAOS_SEED, count])
    return [
        random_gate_circuit(rng, int(rng.integers(*widths)),
                            int(rng.integers(*size)))[0]
        for _ in range(count)
    ]


def close(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-12


@pytest.fixture(params=["kernels", "disabled"])
def switch(request):
    """Each entry point runs with the kernels on and under the
    ``apply_matrix`` reference switch."""
    if request.param == "kernels":
        yield
        return
    with kernels.disabled():
        yield


class TestAgainstReference:
    def test_statevector_paths(self, switch):
        engine = StatevectorSimulator()
        for circuit in cases(12):
            reference = reference_state(circuit)
            assert close(engine.run(circuit).data, reference)
            assert close(Statevector.from_instruction(circuit).data,
                         reference)
            assert close(evolve_broadcast(circuit, np.zeros((2, 0)))[1],
                         reference)

    def test_narrower_circuit_evolves_low_qubits(self, switch):
        for circuit in cases(6, widths=(1, 5)):
            state = Statevector.zero_state(circuit.num_qubits + 2)
            assert close(state.evolve(circuit).data,
                         reference_state(circuit, circuit.num_qubits + 2))

    def test_columns(self, switch):
        for circuit in cases(8, widths=(1, 7)):
            reference = reference_unitary(circuit)
            assert close(Operator.from_circuit(circuit).data, reference)
            assert close(UnitarySimulator().run(circuit).data, reference)

    def test_density_matrix_paths(self, switch):
        for circuit in cases(6, widths=(1, 5), size=(4, 20)):
            state = reference_state(circuit)
            reference = np.outer(state, state.conj())
            assert close(DensityMatrix.from_instruction(circuit).data,
                         reference)
            assert close(DensityMatrixSimulator().run(circuit).data,
                         reference)

    def test_broadcast_rows(self, switch):
        rng = np.random.default_rng([CHAOS_SEED, 99])
        for _ in range(6):
            template, parameters = random_gate_circuit(
                rng, int(rng.integers(2, 8)), int(rng.integers(6, 30)),
                free=True,
            )
            values = rng.uniform(-np.pi, np.pi, size=(3, len(parameters)))
            rows = evolve_broadcast(template, values, parameters)
            for row, binding in zip(rows, values):
                bound = template.bind_parameters(
                    dict(zip(parameters, binding))
                )
                assert close(row, reference_state(bound))


class TestBitwise:
    def test_one_row_paths_agree(self):
        engine = StatevectorSimulator()
        circuits = cases(12)
        # A 13-qubit circuit reaches the tiled low-qubit diagonals.
        circuits.append(random_gate_circuit(
            np.random.default_rng([CHAOS_SEED, 13]), 13, 40
        )[0])
        for circuit in circuits:
            expected = engine.run(circuit).data.tobytes()
            one_row = evolve_broadcast(circuit, np.zeros((1, 0)))
            assert one_row.tobytes() == expected
            assert Statevector.from_instruction(circuit).data.tobytes() == (
                expected
            )

    def test_each_row_equals_its_own_run(self):
        rng = np.random.default_rng([CHAOS_SEED, 7])
        for num_qubits in (1, 2, 3, 4, 5, 6, 8, 13):
            template, parameters = random_gate_circuit(
                rng, num_qubits, 30, free=True
            )
            batch = int(rng.integers(2, 6))
            values = rng.uniform(-np.pi, np.pi,
                                 size=(batch, len(parameters)))
            rows = evolve_broadcast(template, values, parameters)
            for index in range(batch):
                alone = evolve_broadcast(template, values[index:index + 1],
                                         parameters)
                assert alone.tobytes() == rows[index:index + 1].tobytes()
