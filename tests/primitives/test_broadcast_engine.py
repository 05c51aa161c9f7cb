"""Bit-identity of the broadcast engine against per-binding loops."""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulators.batched as batched
from repro.algorithms.ansatz import ry_ansatz, ryrz_ansatz
from repro.algorithms.expectation import ExpectationEstimator
from repro.circuit import ClassicalRegister, Parameter, QuantumCircuit
from repro.quantum_info.pauli import PauliSumOp
from repro.simulators.batched import (
    broadcast_chunk_bounds,
    estimate_broadcast_shots,
    evolve_broadcast,
    sample_broadcast,
)
from repro.simulators.program import Program
from repro.simulators.qasm_simulator import QasmSimulator
from repro.simulators.statevector_simulator import StatevectorSimulator


def bind_rows(circuit, parameters, values):
    return [
        circuit.bind_parameters(dict(zip(parameters, row)))
        for row in values
    ]


def mixed_gate_circuit():
    """Every bound-builder family plus shared gates in one template."""
    t = [Parameter(f"t{i}") for i in range(12)]
    qc = QuantumCircuit(5)
    for q in range(5):
        qc.h(q)
    qc.rx(t[0], 0)
    qc.ry(t[1], 1)
    qc.rz(t[2], 2)
    qc.u1(t[3], 3)
    qc.u2(t[4], t[5] + 0.3, 4)
    qc.u3(t[6], 0.5, t[7], 0)
    qc.crx(t[8], 1, 3)
    qc.cry(t[9] * 0.5, 4, 0)
    qc.crz(t[10], 2, 4)
    qc.cu1(t[11], 0, 2)
    qc.rzz(t[0] + t[1], 1, 2)
    qc.rxx(t[2], 3, 4)
    qc.ryy(t[3], 0, 1)
    qc.cu3(t[4], t[5], t[6], 2, 3)
    qc.cx(0, 1)
    qc.swap(2, 4)
    qc.ccx(0, 1, 2)
    qc.t(3)
    qc.sdg(4)
    qc.cz(1, 3)
    qc.barrier()
    qc.x(0)
    qc.y(1)
    qc.z(2)
    qc.sx(3)
    return qc, t


class TestEvolveBroadcast:
    @pytest.mark.parametrize("builder,num_qubits", [
        (ry_ansatz, 6), (ryrz_ansatz, 5),
    ])
    def test_ansatz_rows_bitwise(self, builder, num_qubits):
        form = builder(num_qubits, reps=2)
        rng = np.random.default_rng(7)
        values = rng.uniform(-np.pi, np.pi, size=(7, form.num_parameters))
        states = evolve_broadcast(form.circuit, values, form.parameters)
        engine = StatevectorSimulator()
        for row, bound in zip(
            states, bind_rows(form.circuit, form.parameters, values)
        ):
            assert row.tobytes() == engine.run(bound).data.tobytes()

    def test_mixed_gates_bitwise(self):
        circuit, params = mixed_gate_circuit()
        rng = np.random.default_rng(11)
        values = rng.uniform(-np.pi, np.pi, size=(8, len(params)))
        states = evolve_broadcast(circuit, values, params)
        engine = StatevectorSimulator()
        for row, bound in zip(states, bind_rows(circuit, params, values)):
            assert row.tobytes() == engine.run(bound).data.tobytes()

    def test_chunk_cap_does_not_change_rows(self, monkeypatch):
        form = ry_ansatz(5, reps=1)
        rng = np.random.default_rng(3)
        values = rng.uniform(-np.pi, np.pi, size=(9, form.num_parameters))
        reference = evolve_broadcast(form.circuit, values, form.parameters)
        # Cap at two statevectors' worth of amplitudes: the engine must
        # chunk internally (or callers chunk via broadcast_chunk_bounds)
        # without perturbing any row.
        monkeypatch.setattr(batched, "MAX_BROADCAST_AMPLITUDES", 2 * 32)
        bounds = broadcast_chunk_bounds(9, 5)
        assert bounds == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]
        rows = [
            evolve_broadcast(form.circuit, values[start:stop],
                             form.parameters)
            for start, stop in bounds
        ]
        stacked = np.concatenate(rows, axis=0)
        assert stacked.tobytes() == reference.tobytes()

    def test_run_batch_matches_run(self):
        form = ryrz_ansatz(4, reps=1)
        rng = np.random.default_rng(5)
        values = rng.uniform(-np.pi, np.pi, size=(4, form.num_parameters))
        engine = StatevectorSimulator()
        states = engine.run_batch(form.circuit, values, form.parameters)
        for state, bound in zip(
            states, bind_rows(form.circuit, form.parameters, values)
        ):
            assert state.data.tobytes() == engine.run(bound).data.tobytes()


class TestChunkBounds:
    def test_single_chunk_when_under_cap(self):
        assert broadcast_chunk_bounds(256, 12) == [(0, 256)]

    def test_splits_cover_batch_exactly(self):
        bounds = broadcast_chunk_bounds(10, 3, cap=3 * 8)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_at_least_one_row_per_chunk(self):
        # A single state larger than the cap still gets one row per chunk.
        assert broadcast_chunk_bounds(2, 10, cap=16) == [(0, 1), (1, 2)]


class TestSampleBroadcast:
    def test_counts_bitwise(self):
        form = ryrz_ansatz(4, reps=1)
        measured = form.circuit.copy()
        measured.add_register(ClassicalRegister(4, "c"))
        for q in range(4):
            measured.measure(q, q)
        rng = np.random.default_rng(9)
        values = rng.uniform(-np.pi, np.pi, size=(6, form.num_parameters))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=6)]
        results = sample_broadcast(
            measured, values, form.parameters, 300, seeds
        )
        engine = QasmSimulator()
        for b, bound in enumerate(
            bind_rows(measured, form.parameters, values)
        ):
            reference = engine.run(bound, shots=300, seed=seeds[b])
            assert results[b]["counts"] == reference["counts"]

    def test_terminal_rz_and_idle_strip_bitwise(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(4, 4)
        qc.h(0)
        qc.cx(0, 1)
        qc.ry(a, 2)
        qc.rz(b, 0)  # terminal diagonal: applied like every gate
        qc.measure(0, 0)
        qc.measure(1, 1)
        qc.measure(2, 2)  # qubit 3 idle: stripped
        rng = np.random.default_rng(13)
        values = rng.uniform(-np.pi, np.pi, size=(5, 2))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=5)]
        results = sample_broadcast(qc, values, [a, b], 500, seeds)
        engine = QasmSimulator()
        for idx, bound in enumerate(bind_rows(qc, [a, b], values)):
            reference = engine.run(bound, shots=500, seed=seeds[idx])
            assert results[idx]["counts"] == reference["counts"]


class TestEstimateBroadcastShots:
    def test_energies_bitwise(self):
        hamiltonian = PauliSumOp.from_dict({
            "ZZII": 0.7, "IZZI": -0.4, "IIZZ": 0.25,
            "XIII": 0.3, "IYII": -0.2, "IIII": 1.1,
        })
        form = ry_ansatz(4, reps=1)
        rng = np.random.default_rng(17)
        values = rng.uniform(-np.pi, np.pi, size=(5, form.num_parameters))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=5)]
        energies = estimate_broadcast_shots(
            form.circuit, values, form.parameters, hamiltonian, 400, seeds
        )
        for idx, bound in enumerate(
            bind_rows(form.circuit, form.parameters, values)
        ):
            estimator = ExpectationEstimator(
                hamiltonian, mode="shots", shots=400, seed=seeds[idx]
            )
            assert energies[idx] == estimator.estimate(bound)

    def test_wide_circuit_tiled_paths_bitwise(self):
        hamiltonian = PauliSumOp.from_dict({
            "Z" * 13: 0.5,
            "X" + "I" * 12: 0.3,
            "I" * 6 + "Y" + "I" * 6: -0.7,
        })
        form = ryrz_ansatz(13, reps=1)
        rng = np.random.default_rng(19)
        values = rng.uniform(-np.pi, np.pi, size=(2, form.num_parameters))
        energies = estimate_broadcast_shots(
            form.circuit, values, form.parameters, hamiltonian, 100,
            [11, 22],
        )
        for idx, bound in enumerate(
            bind_rows(form.circuit, form.parameters, values)
        ):
            estimator = ExpectationEstimator(
                hamiltonian, mode="shots", shots=100, seed=[11, 22][idx]
            )
            assert energies[idx] == estimator.estimate(bound)


class TestSupportPredicates:
    """The program flags that pick broadcast over the per-binding loop."""

    def test_supported_template(self):
        form = ry_ansatz(3, reps=1)
        program = Program(form.circuit, strip_idle=True)
        assert program.broadcastable
        assert program.estimable

    def test_conditional_not_supported(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        qc.data[-1].operation.condition = (qc.cregs[0], 1)
        assert not Program(qc, strip_idle=True).broadcastable

    def test_idle_qubit_not_estimator_broadcastable(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)  # qubit 2 idle
        program = Program(qc, strip_idle=True)
        assert program.broadcastable
        assert not program.estimable
