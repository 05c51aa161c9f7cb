"""The broadcast Estimator's term plans against the term circuits they
stand in for.

Runs under the CHAOS_SEED sweep in CI: each seed draws other random
templates and Pauli sums (default seed 7).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms.expectation import (
    ExpectationEstimator,
    measurement_circuit,
    measurement_terms,
)
from repro.circuit import Parameter, QuantumCircuit
from repro.quantum_info.pauli import PauliSumOp
from repro.simulators.batched import (
    _template_diagonal,
    estimate_broadcast_shots,
    estimator_broadcastable,
    estimator_plan,
)
from repro.simulators.qasm_simulator import QasmSimulator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

ONE_QUBIT = ("h", "x", "s", "sdg", "t", "z")
ONE_QUBIT_ANGLED = ("rz", "u1", "rx", "ry")
TWO_QUBIT = ("cx", "cz")
TWO_QUBIT_ANGLED = ("crz", "cu1", "rzz")
GATES = ONE_QUBIT + ONE_QUBIT_ANGLED + TWO_QUBIT + TWO_QUBIT_ANGLED


def random_template(rng, num_qubits, size):
    """A random template that touches every qubit, with its parameters.

    Angled gates take a fresh parameter, or (one time in four) a fixed
    nonzero angle, so shared and per-binding diagonals both occur.
    """
    while True:
        circuit = QuantumCircuit(num_qubits)
        parameters = []
        for _ in range(size):
            name = GATES[rng.integers(len(GATES))]
            two = name in TWO_QUBIT + TWO_QUBIT_ANGLED
            if two and num_qubits < 2:
                continue
            qubits = [
                int(q) for q in rng.choice(num_qubits, 1 + two,
                                           replace=False)
            ]
            if name in ONE_QUBIT_ANGLED + TWO_QUBIT_ANGLED:
                if rng.random() < 0.25:
                    angle = float(rng.uniform(0.1, 3.0))
                else:
                    angle = Parameter(f"p{len(parameters)}")
                    parameters.append(angle)
                getattr(circuit, name)(angle, *qubits)
            else:
                getattr(circuit, name)(*qubits)
        if estimator_broadcastable(circuit):
            return circuit, parameters


def random_observable(rng, num_qubits):
    """A random real Pauli sum over IXYZ, identity terms included."""
    labels = set()
    count = min(int(rng.integers(1, 6)), 4 ** num_qubits)
    while len(labels) < count:
        if rng.random() < 0.15:
            labels.add("I" * num_qubits)
        else:
            labels.add("".join(rng.choice(list("IXYZ"), num_qubits)))
    return PauliSumOp.from_dict({
        label: float(rng.uniform(-1.5, 1.5)) for label in sorted(labels)
    })


def oracle_elided(template, index, pauli):
    """What the term circuit's own elision drops from the template."""
    measured = measurement_circuit(template, index, pauli)
    return {
        p for p in QasmSimulator._terminal_diagonals(
            measured.data, _template_diagonal
        )
        if p < len(template.data)
    }


def loop_energies(template, parameters, values, observable, shots, seeds):
    return [
        ExpectationEstimator(
            observable, mode="shots", shots=shots, seed=seed,
        ).estimate(template.bind_parameters(dict(zip(parameters, row))))
        for row, seed in zip(values, seeds)
    ]


def random_cases(count):
    rng = np.random.default_rng(CHAOS_SEED)
    for _ in range(count):
        num_qubits = int(rng.integers(1, 5))
        template, parameters = random_template(
            rng, num_qubits, int(rng.integers(2, 13))
        )
        yield rng, template, parameters, random_observable(rng, num_qubits)


class TestRandomizedPlans:
    def test_elided_sets_match_the_term_circuits(self):
        eliding_terms = transitive_terms = 0
        for _rng, template, _parameters, observable in random_cases(200):
            _base, terms = measurement_terms(observable)
            _split, _rotations, plans = estimator_plan(template, terms)
            diagonals = QasmSimulator._terminal_diagonals(
                template.data, _template_diagonal
            )
            for (index, _coeff, pauli), plan in zip(terms, plans):
                elided = plan[2]
                assert elided == oracle_elided(template, index, pauli), (
                    template.data, pauli.label,
                )
                rotated = {
                    template.qubits[q] for q in range(pauli.num_qubits)
                    if pauli.char(q) in ("X", "Y")
                }
                own_qubits_only = {
                    p for p in diagonals
                    if rotated.isdisjoint(template.data[p].qubits)
                }
                eliding_terms += bool(elided)
                transitive_terms += elided != own_qubits_only
        # The draw exercised elision, and terms where an elision rests on
        # qubits beyond the gate's own.
        assert eliding_terms and transitive_terms

    def test_energies_bitwise_equal_the_loop(self):
        for rng, template, parameters, observable in random_cases(40):
            batch = int(rng.integers(1, 4))
            values = rng.uniform(-np.pi, np.pi, size=(batch, len(parameters)))
            seeds = [int(s) for s in rng.integers(0, 2**32, size=batch)]
            energies = estimate_broadcast_shots(
                template, values, parameters, observable, 64, seeds
            )
            assert energies == loop_energies(
                template, parameters, values, observable, 64, seeds
            ), (template.data, observable)


class TestTransitiveElision:
    """rz's elision rests on q1 through the cz after it, so a term that
    rotates q1 keeps both; checking rz's own qubit alone would drop rz
    there and change the sampled arithmetic."""

    @pytest.fixture
    def case(self):
        a = Parameter("a")
        template = QuantumCircuit(2)
        template.h(0)
        template.h(1)
        template.rz(a, 0)
        template.cz(0, 1)
        observable = PauliSumOp.from_dict({"XZ": 1.0, "ZZ": 0.5})
        return template, [a], observable

    def test_rests_follow_the_cz(self, case):
        template, _parameters, _observable = case
        rests: dict = {}
        elided = QasmSimulator._terminal_diagonals(
            template.data, _template_diagonal, rests
        )
        both = frozenset(template.qubits)
        assert elided == {2, 3}
        assert rests == {2: both, 3: both}
        assert QasmSimulator._terminal_diagonals(
            template.data, _template_diagonal
        ) == elided

    def test_xz_elides_nothing_and_zz_elides_the_tail(self, case):
        template, _parameters, observable = case
        _base, terms = measurement_terms(observable)
        split, _rotations, plans = estimator_plan(template, terms)
        by_label = {
            pauli.label: plan for (_i, _c, pauli), plan in zip(terms, plans)
        }
        assert by_label["XZ"][2] == set()
        assert by_label["ZZ"][2] == {2, 3}
        assert split == 2
        assert by_label["XZ"][3] == [2, 3, 4]  # rz, cz, then h on q1
        assert by_label["ZZ"][3] == []
        for (index, _coeff, pauli), plan in zip(terms, plans):
            assert plan[2] == oracle_elided(template, index, pauli)

    def test_energies_bitwise_equal_the_loop(self, case):
        template, parameters, observable = case
        values = np.array([[0.3], [-1.2], [2.5]])
        seeds = [3, 5, 8]
        energies = estimate_broadcast_shots(
            template, values, parameters, observable, 256, seeds
        )
        assert energies == loop_energies(
            template, parameters, values, observable, 256, seeds
        )
