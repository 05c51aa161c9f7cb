"""The broadcast engine against the per-binding loop it stands in for.

Seeded random templates: every broadcast sampler row must equal
``QasmSimulator.run`` of its bound circuit, and every broadcast Estimator
binding the scalar ``ExpectationEstimator``, bit for bit.  Runs under the
CHAOS_SEED sweep in CI: each seed draws other random templates, bindings
and observables (default seed 7).
"""

from __future__ import annotations

import os

import numpy as np

from repro.algorithms.expectation import ExpectationEstimator
from repro.circuit import Parameter, QuantumCircuit
from repro.primitives import SamplerV2
from repro.providers import Aer
from repro.quantum_info.pauli import PauliSumOp
from repro.simulators.batched import estimate_broadcast_shots, sample_broadcast
from repro.simulators.program import Program
from repro.simulators.qasm_simulator import QasmSimulator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

ONE_QUBIT = ("h", "x", "s", "sdg", "t", "z")
ONE_QUBIT_ANGLED = ("rz", "u1", "rx", "ry")
TWO_QUBIT = ("cx", "cz")
TWO_QUBIT_ANGLED = ("crz", "cu1", "rzz")
GATES = ONE_QUBIT + ONE_QUBIT_ANGLED + TWO_QUBIT + TWO_QUBIT_ANGLED

#: Binding angles where a bound gate's matrix turns diagonal or a
#: permutation, so the bound run may dispatch it differently.
CORNERS = (0.0, np.pi, -np.pi, np.pi / 2)

#: Sampler shot counts: small, default-sized, and above one shot-chunk.
SHOTS = (64, 1024, 20000)


def random_gates(rng, circuit, size):
    """Append ``size`` random gates to ``circuit``; returns the new
    parameters.

    Angled gates take a fresh parameter, or (one time in four) a fixed
    nonzero angle, so shared and per-binding gates both occur.
    """
    num_qubits = circuit.num_qubits
    parameters = []
    for _ in range(size):
        name = GATES[rng.integers(len(GATES))]
        two = name in TWO_QUBIT + TWO_QUBIT_ANGLED
        if two and num_qubits < 2:
            continue
        qubits = [
            int(q) for q in rng.choice(num_qubits, 1 + two, replace=False)
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
    return parameters


def random_template(rng, num_qubits, size):
    """A random measurement-free template that touches every qubit, with
    its parameters."""
    while True:
        circuit = QuantumCircuit(num_qubits)
        parameters = random_gates(rng, circuit, size)
        if Program(circuit).estimable:
            return circuit, parameters


def random_measured_template(rng):
    """A random sampler template with its parameters: gates, then a
    measurement of a random nonempty subset of the qubits into shuffled
    clbits (a qubit no instruction touches is stripped on both paths)."""
    num_qubits = int(rng.integers(1, 5))
    circuit = QuantumCircuit(num_qubits, num_qubits)
    parameters = random_gates(rng, circuit, int(rng.integers(2, 13)))
    clbits = rng.permutation(num_qubits)
    measured = rng.permutation(num_qubits)[:rng.integers(1, num_qubits + 1)]
    for qubit in sorted(int(q) for q in measured):
        circuit.measure(qubit, int(clbits[qubit]))
    return circuit, parameters


def random_values(rng, batch, count):
    """Uniform binding angles, about 40% of them moved onto a corner."""
    values = rng.uniform(-np.pi, np.pi, size=(batch, count))
    corner = rng.random(values.shape) < 0.4
    values[corner] = rng.choice(CORNERS, size=int(corner.sum()))
    return values


def bind_rows(template, parameters, values):
    return [
        template.bind_parameters(dict(zip(parameters, row)))
        for row in values
    ]


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


def loop_energies(template, parameters, values, observable, shots, seeds):
    return [
        ExpectationEstimator(
            observable, mode="shots", shots=shots, seed=seed,
        ).estimate(bound)
        for bound, seed in zip(bind_rows(template, parameters, values), seeds)
    ]


def random_cases(count):
    rng = np.random.default_rng(CHAOS_SEED)
    for _ in range(count):
        num_qubits = int(rng.integers(1, 5))
        template, parameters = random_template(
            rng, num_qubits, int(rng.integers(2, 13))
        )
        yield rng, template, parameters, random_observable(rng, num_qubits)


def random_sampler_cases(count, stream):
    """``count`` random ``(rng, template, parameters, values, shots)``
    sampler cases; ``stream`` keeps each test's draws its own."""
    rng = np.random.default_rng([CHAOS_SEED, stream])
    for _ in range(count):
        template, parameters = random_measured_template(rng)
        values = random_values(rng, int(rng.integers(1, 4)), len(parameters))
        yield rng, template, parameters, values, int(rng.choice(SHOTS))


class TestSamplerProperty:
    def test_counts_bitwise_equal_the_loop(self):
        engine = QasmSimulator()
        for rng, template, parameters, values, shots in random_sampler_cases(
            60, stream=0
        ):
            seeds = [int(s) for s in rng.integers(0, 2**32, size=len(values))]
            rows = sample_broadcast(template, values, parameters, shots, seeds)
            for row, bound, seed in zip(
                rows, bind_rows(template, parameters, values), seeds
            ):
                assert row["counts"] == engine.run(
                    bound, shots=shots, seed=seed
                )["counts"], (template.data, values, shots)

    def test_pub_equals_backend_run_of_the_bound_circuits(self):
        backend = Aer.get_backend("qasm_simulator")
        for rng, template, parameters, values, shots in random_sampler_cases(
            20, stream=1
        ):
            seed = int(rng.integers(0, 2**32))
            result = SamplerV2(seed=seed).run(
                [(template, values, parameters)], shots=shots
            ).result()
            reference = backend.run(
                bind_rows(template, parameters, values), shots=shots,
                seed=seed,
            ).result()
            assert result[0].metadata["path"] == "broadcast"
            assert result[0].data.counts == [
                experiment.data["counts"] for experiment in reference.results
            ], (template.data, values, shots)


class TestEstimatorProperty:
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


class TestFixedEstimator:
    """``h(0); h(1); rz(a, 0); cz(0, 1)`` ends in diagonals that a ZZ
    term measures right after and an XZ term rotates q1 after: each
    binding must still equal its term circuits."""

    def test_energies_bitwise_equal_the_loop(self):
        a = Parameter("a")
        template = QuantumCircuit(2)
        template.h(0)
        template.h(1)
        template.rz(a, 0)
        template.cz(0, 1)
        observable = PauliSumOp.from_dict({"XZ": 1.0, "ZZ": 0.5})
        values = np.array([[0.3], [-1.2], [2.5]])
        seeds = [3, 5, 8]
        energies = estimate_broadcast_shots(
            template, values, [a], observable, 256, seeds
        )
        assert energies == loop_energies(
            template, [a], values, observable, 256, seeds
        )
