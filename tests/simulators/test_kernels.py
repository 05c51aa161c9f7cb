"""Property and smoke tests for the specialized simulation kernels.

The contract under test: :func:`repro.simulators.kernels.apply_unitary` is a
drop-in replacement for the generic :func:`apply_matrix` — same little-endian
conventions, agreement to 1e-12 — across every structural fast path (diagonal,
permutation, controlled, dense 1q/2q/3q) and the batched-column layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ansatz import ry_ansatz
from repro.circuit.gate import Gate, clear_matrix_cache
from repro.circuit.library.standard_gates import (
    CU3Gate,
    CXGate,
    HGate,
    RZGate,
    U3Gate,
    get_standard_gate,
)
from repro.circuit.matrix_utils import apply_matrix
from repro.simulators import kernels
from repro.simulators.batched import evolve_broadcast

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1.0, 1.0j])
CX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _random_state(rng, num_qubits, batch=None):
    shape = (2**num_qubits,) if batch is None else (2**num_qubits, batch)
    state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return state / np.linalg.norm(state)


def _random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _controlled(base):
    dim = base.shape[0]
    full = np.eye(2 * dim, dtype=complex)
    full[1::2, 1::2] = base
    return full


def _assert_matches_reference(state, matrix, targets, num_qubits):
    reference = apply_matrix(state, matrix, targets, num_qubits)
    original = state.copy()
    result = kernels.apply_unitary(state, matrix, targets, num_qubits)
    assert np.array_equal(state, original), "mutate=False modified its input"
    assert np.abs(result - reference).max() <= 1e-12
    mutated = kernels.apply_unitary(
        original.copy(), matrix, targets, num_qubits, mutate=True
    )
    assert np.abs(mutated - reference).max() <= 1e-12


@pytest.mark.smoke
class TestKernelAgreement:
    """The ISSUE's acceptance smoke: kernels == apply_matrix to 1e-12."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 4, 7])
    @pytest.mark.parametrize(
        "matrix,arity",
        [(X, 1), (Y, 1), (H, 1), (S, 1), (CX, 2), (CZ, 2), (SWAP, 2)],
        ids=["x", "y", "h", "s", "cx", "cz", "swap"],
    )
    def test_named_gates_all_target_choices(self, num_qubits, matrix, arity):
        if arity > num_qubits:
            pytest.skip("gate wider than register")
        rng = np.random.default_rng(num_qubits * 101 + arity)
        from itertools import permutations

        for targets in permutations(range(num_qubits), arity):
            state = _random_state(rng, num_qubits)
            _assert_matches_reference(state, matrix, list(targets), num_qubits)

    @given(seed=st.integers(0, 10_000), num_qubits=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_random_dense_1q(self, seed, num_qubits):
        rng = np.random.default_rng(seed)
        matrix = _random_unitary(rng, 2)
        target = int(rng.integers(num_qubits))
        state = _random_state(rng, num_qubits)
        _assert_matches_reference(state, matrix, [target], num_qubits)

    @given(seed=st.integers(0, 10_000), num_qubits=st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_random_dense_2q(self, seed, num_qubits):
        rng = np.random.default_rng(seed)
        matrix = _random_unitary(rng, 4)
        targets = [int(t) for t in rng.choice(num_qubits, 2, replace=False)]
        state = _random_state(rng, num_qubits)
        _assert_matches_reference(state, matrix, targets, num_qubits)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_structured(self, seed):
        """Diagonal, monomial, controlled, and nested-controlled matrices."""
        rng = np.random.default_rng(seed)
        num_qubits = 6
        diag = np.diag(np.exp(1j * rng.standard_normal(4)))
        monomial = SWAP @ np.diag(np.exp(1j * rng.standard_normal(4)))
        ctrl = _controlled(_random_unitary(rng, 2))
        nested = _controlled(_controlled(_random_unitary(rng, 2)))
        for matrix in (diag, monomial, ctrl, nested):
            arity = matrix.shape[0].bit_length() - 1
            targets = [
                int(t) for t in rng.choice(num_qubits, arity, replace=False)
            ]
            state = _random_state(rng, num_qubits)
            _assert_matches_reference(state, matrix, targets, num_qubits)

    @given(seed=st.integers(0, 10_000), batch=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_batched_columns(self, seed, batch):
        rng = np.random.default_rng(seed)
        num_qubits = 5
        state = _random_state(rng, num_qubits, batch=batch)
        for matrix, arity in ((_random_unitary(rng, 2), 1), (CX, 2), (CZ, 2)):
            targets = [
                int(t) for t in rng.choice(num_qubits, arity, replace=False)
            ]
            _assert_matches_reference(state, matrix, targets, num_qubits)

    def test_random_circuit_evolution(self):
        """Whole-circuit agreement: a random layered gate sequence."""
        rng = np.random.default_rng(11)
        num_qubits = 8
        fast = _random_state(rng, num_qubits)
        slow = fast.copy()
        for _ in range(60):
            arity = int(rng.integers(1, 3))
            matrix = _random_unitary(rng, 2**arity)
            targets = [
                int(t) for t in rng.choice(num_qubits, arity, replace=False)
            ]
            fast = kernels.apply_unitary(
                fast, matrix, targets, num_qubits, mutate=True
            )
            slow = apply_matrix(slow, matrix, targets, num_qubits)
        assert np.abs(fast - slow).max() <= 1e-12


class TestStructuralAnalysis:
    def test_classification_kinds(self):
        assert kernels._analysis(np.ascontiguousarray(CZ))[0] == "diag"
        assert kernels._analysis(np.ascontiguousarray(SWAP))[0] == "perm"
        ctrl = _controlled(_random_unitary(np.random.default_rng(0), 2))
        assert kernels._analysis(np.ascontiguousarray(ctrl))[0] == "ctrl"
        dense = _random_unitary(np.random.default_rng(1), 4)
        assert kernels._analysis(np.ascontiguousarray(dense))[0] == "dense"

    def test_unitary_gate_diagonal_hits_fast_path(self):
        """Structural dispatch covers matrices, not just recognized names."""
        diag = np.ascontiguousarray(np.diag(np.exp(1j * np.arange(4))))
        assert kernels._analysis(diag)[0] == "diag"

    def test_disabled_context(self):
        assert kernels.ENABLED
        with kernels.disabled():
            assert not kernels.ENABLED
            with kernels.disabled():
                assert not kernels.ENABLED
            assert not kernels.ENABLED
        assert kernels.ENABLED

    def test_wide_gates_fall_back(self):
        rng = np.random.default_rng(2)
        num_qubits = 5
        matrix = _random_unitary(rng, 16)
        state = _random_state(rng, num_qubits)
        reference = apply_matrix(state, matrix, [0, 1, 2, 3], num_qubits)
        result = kernels.apply_unitary(state, matrix, [0, 1, 2, 3], num_qubits)
        assert np.abs(result - reference).max() <= 1e-12


class TestGateMatrixCache:
    def setup_method(self):
        clear_matrix_cache()
        kernels.clear_caches()

    def test_shared_cache_across_instances(self):
        first = U3Gate(0.1, 0.2, 0.3).to_matrix()
        second = U3Gate(0.1, 0.2, 0.3).to_matrix()
        assert first is second
        assert not first.flags.writeable

    def test_distinct_params_distinct_matrices(self):
        a = RZGate(0.5).to_matrix()
        b = RZGate(0.7).to_matrix()
        assert not np.allclose(a, b)

    def test_instance_cache_invalidates_on_param_change(self):
        gate = RZGate(0.5)
        before = gate.to_matrix().copy()
        gate.params = [1.5]
        after = gate.to_matrix()
        assert not np.allclose(before, after)
        assert np.allclose(after, RZGate(1.5).to_matrix())

    def test_bind_parameters_invalidates(self):
        from repro.circuit.parameter import Parameter

        theta = Parameter("theta")
        gate = RZGate(theta)
        bound = gate.bind_parameters({theta: 0.25})
        assert np.allclose(bound.to_matrix(), RZGate(0.25).to_matrix())

    def test_composite_definition_walk_cached(self):
        gate = CU3Gate(0.4, 0.5, 0.6)
        assert gate.to_matrix() is gate.to_matrix()

    def test_cached_matrices_still_correct(self):
        for name in ("x", "h", "s", "t", "cx", "cz", "swap", "ccx"):
            gate = get_standard_gate(name)
            fresh = gate._compute_matrix()
            assert np.allclose(gate.to_matrix(), fresh)

    def test_controlled_unitary_tracks_base_params(self):
        from repro.circuit.library.standard_gates import ControlledUnitaryGate

        base = RZGate(0.5)
        controlled = ControlledUnitaryGate(base)
        before = controlled.to_matrix().copy()
        base.params = [2.5]
        after = controlled.to_matrix()
        assert not np.allclose(before, after)

    def test_apply_gate_uses_cached_matrix(self):
        rng = np.random.default_rng(3)
        state = _random_state(rng, 4)
        expected = apply_matrix(state, HGate().to_matrix(), [2], 4)
        result = kernels.apply_gate(state, HGate(), [2], 4)
        assert np.abs(result - expected).max() <= 1e-12


class TestDenseScratch:
    def test_pool_keeps_only_the_latest_retired_buffer(self):
        # Broadcast row stacks of four sizes each retire a buffer into
        # the pool; it must hold one, not one per size.
        kernels.clear_caches()
        form = ry_ansatz(6, reps=1)
        rng = np.random.default_rng(8)
        for batch in range(1, 5):
            values = rng.uniform(-np.pi, np.pi,
                                 size=(batch, form.num_parameters))
            evolve_broadcast(form.circuit, values, form.parameters)
        assert len(kernels._DENSE_SCRATCH) == 1


class TestSimulatorsThroughKernels:
    def test_statevector_simulator_matches_disabled(self):
        from repro.circuit.quantumcircuit import QuantumCircuit
        from repro.simulators.statevector_simulator import StatevectorSimulator

        circuit = QuantumCircuit(4)
        circuit.h(0)
        for i in range(3):
            circuit.cx(i, i + 1)
        circuit.t(2)
        circuit.rz(0.3, 1)
        simulator = StatevectorSimulator()
        fast = simulator.run(circuit).data
        with kernels.disabled():
            slow = simulator.run(circuit).data
        assert np.abs(fast - slow).max() <= 1e-12

    def test_qasm_counts_identical_with_and_without_kernels(self):
        from repro.circuit.quantumcircuit import QuantumCircuit
        from repro.simulators.qasm_simulator import QasmSimulator

        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.measure_all(add_register=False)
        simulator = QasmSimulator()
        fast = simulator.run(circuit, shots=512, seed=9)["counts"]
        with kernels.disabled():
            slow = simulator.run(circuit, shots=512, seed=9)["counts"]
        assert fast == slow

    def test_backend_use_kernels_option(self):
        from repro.circuit.quantumcircuit import QuantumCircuit
        from repro.providers.aer import Aer

        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all(add_register=False)
        backend = Aer.get_backend("qasm_simulator")
        fast = backend.run(circuit, shots=256, seed=5).result()
        with kernels.disabled():
            slow = backend.run(
                circuit, shots=256, seed=5, executor="serial"
            ).result()
        assert fast.get_counts() == slow.get_counts()
