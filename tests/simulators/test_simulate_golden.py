"""Golden digest of the shot-based simulators' output on seeded inputs.

Every sampling path draws its outcomes from a generator seeded per run, so
a change to which gates run, in which order, or which random numbers are
consumed changes the counts of some case below.  This test pins the seeded
counts (and shot memory) of every strategy to recorded digests:

* sampling (noise-free and readout-only, idle qubits stripped);
* column-batched unitary noise (the ``ibmqx4`` device model: depolarizing
  plus readout, on compiled device circuits; and a qubit-local error that
  keeps every wire);
* trajectories (conditions, reset, mid-circuit measurement, amplitude
  damping);
* density-matrix counts;
* the broadcast sampler and shots-mode Estimator on seeded templates.

Raw amplitudes stay out: their last bits depend on the BLAS build, while
seeded counts and shots-mode Estimator values (integer tallies over shots)
do not.  A change meant to alter sampled output records new digests with
``PYTHONPATH=src python tests/simulators/test_simulate_golden.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.algorithms.ansatz import ry_ansatz, ryrz_ansatz
from repro.algorithms.bernstein_vazirani import bv_circuit
from repro.algorithms.qft import qft_circuit
from repro.circuit import ClassicalRegister, QuantumCircuit, QuantumRegister
from repro.circuit.library.standard_gates import XGate, ZGate
from repro.circuit.random_circuit import random_circuit
from repro.providers.fake import IBMQ
from repro.quantum_info.pauli import PauliSumOp
from repro.simulators.batched import estimate_broadcast_shots, sample_broadcast
from repro.simulators.density_matrix_simulator import DensityMatrixSimulator
from repro.simulators.noise import (
    NoiseModel,
    ReadoutError,
    amplitude_damping_error,
    depolarizing_error,
    thermal_relaxation_error,
)
from repro.simulators.qasm_simulator import QasmSimulator
from repro.transpiler.preset import transpile

#: sha256 of the seeded output, per simulation path.
GOLDEN = {
    "batched": "c1042a60d352e9c6dab6916978ef50e4ef14d1a16f3be7b945584301219afa67",
    "broadcast_estimator": "c9bc0709e95936237cbc269c6c8383ea9cb15cf90492acde45e15f0732fc8306",
    "broadcast_sampler": "f32d0c9306fbcfa889b5187b2158eb84de49c1510227fc2b678ee2a487f08138",
    "density_matrix": "4b4af99cc8d520082d42099a1cb626502b5d37bc74e40135ee06ba5733ecf240",
    "sampling": "54596972e2a631136aef50553aa4215883e2760671d3904bf126f17345084cfa",
    "trajectories": "f52bd82f114022dad9c34ab1663b8722fafa1d08f6851f06fbc9c0676ea8a2a7",
}


def _ghz(width):
    circuit = QuantumCircuit(width, width)
    circuit.h(0)
    for qubit in range(width - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.measure(range(width), range(width))
    return circuit


def _qft(width, basis_input):
    circuit = QuantumCircuit(width, width)
    for qubit in range(width):
        if (basis_input >> qubit) & 1:
            circuit.x(qubit)
    circuit.compose(qft_circuit(width), qubits=circuit.qubits, inplace=True)
    circuit.measure(range(width), range(width))
    return circuit


def _fig1():
    circuit = QuantumCircuit(4, 4)
    circuit.h(2)
    circuit.cx(2, 3)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.cx(1, 2)
    circuit.t(0)
    circuit.cx(2, 0)
    circuit.cx(0, 1)
    circuit.measure(range(4), range(4))
    return circuit


def _idle_and_shuffled():
    """Idle wires, a partial measurement into shuffled clbits, a wide
    diagonal on low qubits, and a barrier."""
    circuit = QuantumCircuit(7, 5)
    circuit.h(1)
    circuit.cx(1, 3)
    circuit.ry(0.7, 5)
    circuit.barrier()
    circuit.cu1(0.4, 3, 5)
    circuit.swap(1, 5)
    circuit.ccx(1, 3, 5)
    circuit.measure(5, 0)
    circuit.measure(1, 4)
    circuit.measure(3, 2)
    return circuit


def _sampling_circuits():
    rng = np.random.default_rng(26)
    circuits = [_ghz(5), _ghz(12), _qft(6, 37), _qft(13, 4242), _fig1(),
                bv_circuit("1011"), _idle_and_shuffled()]
    circuits += [random_circuit(width, 5, seed=int(rng.integers(2**31)),
                                measure=True)
                 for width in (2, 3, 5, 8, 10)]
    return circuits


def _readout_only():
    model = NoiseModel()
    model.add_readout_error(ReadoutError([[0.95, 0.05], [0.1, 0.9]]))
    return model


def _local_depolarizing():
    """A qubit-local 1q error, so idle wires are kept, plus readout."""
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing_error(0.05, 2), ["cx"])
    model.add_quantum_error(depolarizing_error(0.1, 1), ["h"], [0])
    model.add_readout_error(ReadoutError([[0.97, 0.03], [0.06, 0.94]]),
                            [0, 1])
    return model


def _damping():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(amplitude_damping_error(0.08), ["x", "h"])
    model.add_all_qubit_quantum_error(
        thermal_relaxation_error(50.0, 40.0, 1.0).tensor(
            thermal_relaxation_error(50.0, 40.0, 1.0)
        ),
        ["cx"],
    )
    model.add_readout_error(ReadoutError([[0.96, 0.04], [0.08, 0.92]]))
    return model


def _dynamic_circuits():
    """Conditions, reset and mid-circuit measurement."""
    q = QuantumRegister(3, "q")
    c = ClassicalRegister(2, "c")
    d = ClassicalRegister(1, "d")
    teleport = QuantumCircuit(q, c, d)
    teleport.ry(1.1, 0)
    teleport.h(1)
    teleport.cx(1, 2)
    teleport.cx(0, 1)
    teleport.h(0)
    teleport.measure(0, 0)
    teleport.measure(1, 1)
    teleport.append(XGate().c_if(c, 2), [2])
    teleport.append(ZGate().c_if(c, 1), [2])
    teleport.append(XGate().c_if(c, 3), [2])
    teleport.append(ZGate().c_if(c, 3), [2])
    teleport.measure(2, 2)

    reset = QuantumCircuit(2, 2)
    reset.h(0)
    reset.cx(0, 1)
    reset.reset(0)
    reset.h(0)
    reset.measure(0, 0)
    reset.measure(1, 1)

    remeasure = QuantumCircuit(2, 3)
    remeasure.h(0)
    remeasure.measure(0, 0)
    remeasure.cx(0, 1)
    remeasure.rx(0.9, 0)
    remeasure.measure(0, 1)
    remeasure.measure(1, 2)
    return [teleport, reset, remeasure]


def _digest(entries) -> str:
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _run_entry(payload):
    return (sorted(payload["counts"].items()), payload.get("memory"))


def sampling_digest() -> str:
    engine = QasmSimulator()
    entries = []
    for index, circuit in enumerate(_sampling_circuits()):
        entries.append(_run_entry(engine.run(circuit, shots=777,
                                             seed=100 + index, memory=True)))
        entries.append(_run_entry(engine.run(
            circuit, shots=300, seed=200 + index,
            noise_model=_readout_only(), memory=True,
        )))
    return _digest(entries)


def batched_digest() -> str:
    device = IBMQ.get_backend("ibmqx4")
    engine = QasmSimulator()
    entries = []
    device_circuits = [_fig1(), _ghz(5), bv_circuit("1011"), _qft(4, 9)]
    for index, circuit in enumerate(device_circuits):
        compiled = transpile(circuit, backend=device, seed=0,
                             transpile_cache=False)
        entries.append(_run_entry(engine.run(
            compiled, shots=1024, seed=300 + index,
            noise_model=device.noise_model, memory=True,
        )))
    for index, circuit in enumerate([_ghz(4), _fig1(), _idle_and_shuffled()]):
        entries.append(_run_entry(engine.run(
            circuit, shots=500, seed=400 + index,
            noise_model=_local_depolarizing(), memory=True,
        )))
    return _digest(entries)


def trajectories_digest() -> str:
    engine = QasmSimulator()
    entries = []
    circuits = _dynamic_circuits() + [_ghz(4), _fig1()]
    for index, circuit in enumerate(circuits):
        entries.append(_run_entry(engine.run(circuit, shots=200,
                                             seed=500 + index, memory=True)))
        entries.append(_run_entry(engine.run(
            circuit, shots=200, seed=600 + index, noise_model=_damping(),
            memory=True,
        )))
    return _digest(entries)


def density_matrix_digest() -> str:
    engine = DensityMatrixSimulator()
    entries = []
    for index, circuit in enumerate([_ghz(4), _fig1(), _qft(5, 11),
                                     _idle_and_shuffled()]):
        for noise in (None, _damping(), _local_depolarizing()):
            payload = engine.counts(circuit, shots=400, seed=700 + index,
                                    noise_model=noise)
            entries.append(sorted(payload["counts"].items()))
    return _digest(entries)


def _measured(circuit):
    measured = circuit.copy()
    measured.add_register(ClassicalRegister(circuit.num_qubits, "c"))
    measured.measure(range(circuit.num_qubits), range(circuit.num_qubits))
    return measured


def broadcast_sampler_digest() -> str:
    rng = np.random.default_rng(2026)
    entries = []
    for form in (ry_ansatz(5, reps=2), ryrz_ansatz(4, reps=1),
                 ry_ansatz(12, reps=1)):
        values = rng.uniform(-np.pi, np.pi, size=(5, form.num_parameters))
        seeds = [int(seed) for seed in rng.integers(0, 2**32, size=5)]
        rows = sample_broadcast(_measured(form.circuit), values,
                                form.parameters, 500, seeds)
        entries.extend(sorted(row["counts"].items()) for row in rows)
    return _digest(entries)


def broadcast_estimator_digest() -> str:
    rng = np.random.default_rng(2027)
    entries = []
    for form, labels in (
        (ry_ansatz(4, reps=2), {"ZZII": 0.7, "IXXI": -0.4, "YIIY": 0.25,
                                "IIII": 1.1}),
        (ryrz_ansatz(6, reps=1), {"ZIIIIZ": 0.5, "XXIIII": -0.3,
                                  "IIYIZI": 0.2}),
        (ry_ansatz(8, reps=1), {"Z" * 8: 1.0, "X" + "I" * 7: 0.5}),
    ):
        values = rng.uniform(-np.pi, np.pi, size=(4, form.num_parameters))
        seeds = [int(seed) for seed in rng.integers(0, 2**32, size=4)]
        energies = estimate_broadcast_shots(
            form.circuit, values, form.parameters,
            PauliSumOp.from_dict(labels), 256, seeds,
        )
        entries.extend(float(energy) for energy in energies)
    return _digest(entries)


def simulated_digests() -> dict:
    """sha256 over every path's seeded output, per path."""
    return {
        "batched": batched_digest(),
        "broadcast_estimator": broadcast_estimator_digest(),
        "broadcast_sampler": broadcast_sampler_digest(),
        "density_matrix": density_matrix_digest(),
        "sampling": sampling_digest(),
        "trajectories": trajectories_digest(),
    }


def test_sampling_matches_golden_digest():
    assert sampling_digest() == GOLDEN["sampling"]


def test_batched_noise_matches_golden_digest():
    assert batched_digest() == GOLDEN["batched"]


def test_trajectories_match_golden_digest():
    assert trajectories_digest() == GOLDEN["trajectories"]


def test_density_matrix_counts_match_golden_digest():
    assert density_matrix_digest() == GOLDEN["density_matrix"]


def test_broadcast_sampler_matches_golden_digest():
    assert broadcast_sampler_digest() == GOLDEN["broadcast_sampler"]


def test_broadcast_estimator_matches_golden_digest():
    assert broadcast_estimator_digest() == GOLDEN["broadcast_estimator"]


if __name__ == "__main__":
    for key, value in simulated_digests().items():
        print(f"    {key!r}: {value!r},")
