"""Golden digest of the execution pipeline's seeded output.

Every way a job reaches a simulator — ``backend.run`` on each executor,
``execute`` on a device with and without shot-chunks, the primitives'
``run_pubs``, a ``RuntimeService`` job and ``Job.resume`` of a cut
checkpoint — derives its seeds before it runs anything, so its counts,
shot memory and shots-mode Estimator values are a pure function of the
inputs.  This test pins them to recorded digests, over batches that
exercise what the pipeline hands the engines:

* a ``to_gate()`` composite (expanded through its definition), a
  conditioned composite (each expanded gate inherits the condition), a
  ``UnitaryGate``, a ``DiagonalGate`` and a conditioned standard gate, on
  the qasm, density-matrix and DD simulators under all three executors
  (the last two refuse conditions: the ERROR entry is pinned too);
* a Clifford batch with a composite Clifford block on the stabilizer
  simulator;
* ``execute`` on ``ibmqx4`` at one payload per experiment and split
  into shot-chunks;
* the sampler and the shots-mode Estimator through ``run_pubs``, on the
  broadcast path and on the per-binding loop;
* a service job, and a checkpointed job resumed after it was cut.

Raw amplitudes stay out, as in ``tests/simulators/test_simulate_golden.py``.
A change meant to alter sampled output records new digests with
``PYTHONPATH=src python tests/providers/test_pipeline_golden.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.ansatz import ry_ansatz, ryrz_ansatz
from repro.circuit import ClassicalRegister, QuantumCircuit, QuantumRegister
from repro.circuit.library.standard_gates import (
    DiagonalGate,
    UnitaryGate,
    XGate,
    ZGate,
)
from repro.primitives import EstimatorV2, SamplerV2
from repro.providers import Aer, execute
from repro.providers.backend import Job
from repro.providers.fake import IBMQ
from repro.quantum_info.pauli import PauliSumOp
from repro.quantum_info.random import random_unitary
from repro.runtime import RuntimeService
from repro.simulators.noise import NoiseModel, depolarizing_error

#: sha256 of the seeded output, per pipeline case.
GOLDEN = {
    "dd_simulator": "386f09cca1261944639b1545132831af96b3fe60a5cda03a8f4c84b6aa590e2d",
    "density_matrix_simulator": "c4708871a29e3bc39e0ba85245b88862a6ed7ad635b17b0ea84f448700c70552",
    "estimator": "1c77dec175c4e0e12a5e01a7d0ef6c41341e4434855e55ab585a2627819a2c09",
    "execute_chunked": "e3c1dab10157ca9b7077075182288ca66a6a340732d80c435486f1b7430560c9",
    "execute_unchunked": "bc6d412ec05c934693150948d634755ef7648fdfb8a9801be15b3198e9737a6c",
    "qasm_simulator": "de19db2403c5b14303dbe0274b0421453284e2be5e649fe63cd478b46c641aaa",
    "resume": "ab2d1a04e723f3a5a3ff9576997ace667240191c7293b2c658029c6015eefe8b",
    "sampler": "783d4ef24ae91a88e747e5734ec1f256c9e45c31a1bac3bbe45f53838b8dffce",
    "service": "c6cfdc6f17d9afca01b139b850549ebdb0fdb6d6c56324baaac3d2dcfed82026",
    "stabilizer_simulator": "2eac92e38966880374db54354fe909a320b7ae7a8e66934debceda0e37620e72",
}

EXECUTORS = ("serial", "threads", "processes")


def _block():
    """A 2-qubit composite gate: its definition mixes fixed and angled
    gates."""
    block = QuantumCircuit(2, name="block")
    block.h(0)
    block.cx(0, 1)
    block.rz(0.3, 1)
    block.t(0)
    block.ry(1.1, 1)
    return block.to_gate()


def _composite():
    """A composite, a unitary and a diagonal on a 4-qubit GHZ base."""
    circuit = QuantumCircuit(4, 4, name="composite")
    circuit.h(0)
    circuit.append(_block(), [0, 2])
    circuit.append(UnitaryGate(random_unitary(2, seed=5).data), [1, 3])
    circuit.append(
        DiagonalGate(np.exp(1j * np.array([0.1, 0.7, -0.4, 1.3]))), [2, 0]
    )
    circuit.cx(2, 3)
    circuit.append(_block(), [3, 1])
    circuit.measure(range(4), range(4))
    return circuit


def _conditioned():
    """A conditioned standard gate and a conditioned composite."""
    q = QuantumRegister(3, "q")
    c = ClassicalRegister(3, "c")
    flag = ClassicalRegister(1, "flag")
    circuit = QuantumCircuit(q, c, flag, name="conditioned")
    circuit.h(0)
    circuit.measure(0, flag[0])
    circuit.append(XGate().c_if(flag, 1), [1])
    circuit.append(_block().c_if(flag, 0), [1, 2])
    circuit.append(ZGate().c_if(flag, 1), [2])
    circuit.h(2)
    circuit.measure(q, c)
    return circuit


def _ghz(width):
    circuit = QuantumCircuit(width, width, name=f"ghz{width}")
    circuit.h(0)
    for qubit in range(width - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.measure(range(width), range(width))
    return circuit


def _fig1():
    circuit = QuantumCircuit(4, 4, name="fig1")
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


def _batch():
    return [_composite(), _conditioned(), _ghz(3)]


def _clifford_batch():
    block = QuantumCircuit(3, name="clifford")
    block.h(0)
    block.cx(0, 1)
    block.s(1)
    block.cz(1, 2)
    block.swap(0, 2)
    block.sdg(0)
    gate = block.to_gate()
    circuit = QuantumCircuit(4, 4, name="clifford_block")
    circuit.h(3)
    circuit.append(gate, [3, 0, 2])
    circuit.y(1)
    circuit.append(gate, [1, 2, 3])
    circuit.measure(range(4), range(4))
    return [circuit, _ghz(5)]


def _noise():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing_error(0.02, 1), ["h"])
    model.add_all_qubit_quantum_error(depolarizing_error(0.04, 2), ["cx"])
    return model


def _digest(entries) -> str:
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _result_entries(result):
    entries = []
    for outcome in result.results:
        data = outcome.data if isinstance(outcome.data, dict) else {}
        entries.append((
            outcome.circuit_name, outcome.status, outcome.error,
            sorted(data.get("counts", {}).items()), data.get("memory"),
        ))
    return entries


def backend_digest(name, executor="serial") -> str:
    batch = _clifford_batch() if name == "stabilizer_simulator" else _batch()
    result = Aer.get_backend(name).run(
        batch, shots=300, seed=2027, memory=True, executor=executor,
    ).result()
    return _digest(_result_entries(result))


def execute_digest(chunked) -> str:
    device = IBMQ.get_backend("ibmqx4")
    options = {"shot_chunk_size": 700} if chunked else {}
    job = execute([_fig1(), _ghz(5), _composite()], device, shots=1500,
                  seed=2028, memory=True, **options)
    return _digest(_result_entries(job.result()))


def _measured(circuit):
    measured = circuit.copy()
    measured.add_register(ClassicalRegister(circuit.num_qubits, "c"))
    measured.measure(range(circuit.num_qubits), range(circuit.num_qubits))
    return measured


def sampler_digest() -> str:
    rng = np.random.default_rng(2029)
    broadcast = ryrz_ansatz(4, reps=1)
    form = ry_ansatz(3, reps=1)
    looped = _measured(form.circuit)
    looped.append(XGate().c_if(looped.cregs[0], 5), [1])
    pubs = [
        (_measured(broadcast.circuit),
         rng.uniform(-np.pi, np.pi, size=(4, broadcast.num_parameters)),
         broadcast.parameters),
        (looped, rng.uniform(-np.pi, np.pi, size=(3, form.num_parameters)),
         form.parameters),
    ]
    result = SamplerV2(seed=2030).run(pubs, shots=400).result()
    entries = []
    for pub in result:
        entries.append(pub.metadata["path"])
        entries.extend(sorted(counts.items()) for counts in pub.data.counts)
    return _digest(entries)


def estimator_digest() -> str:
    rng = np.random.default_rng(2031)
    full = ry_ansatz(4, reps=2)
    form = ry_ansatz(2, reps=1)
    idle = QuantumCircuit(3)
    idle.compose(form.circuit, qubits=[0, 2], inplace=True)
    pubs = [
        (full.circuit,
         PauliSumOp.from_dict({"ZZII": 0.7, "IXXI": -0.4, "IIII": 1.1}),
         rng.uniform(-np.pi, np.pi, size=(3, full.num_parameters)),
         full.parameters),
        (idle, PauliSumOp.from_dict({"ZIZ": 0.5, "XII": -0.3}),
         rng.uniform(-np.pi, np.pi, size=(2, form.num_parameters)),
         form.parameters),
    ]
    estimator = EstimatorV2(Aer.get_backend("qasm_simulator"),
                            mode="shots", seed=2032)
    result = estimator.run(pubs, shots=256).result()
    entries = []
    for pub in result:
        entries.append(pub.metadata["path"])
        entries.extend(float(value) for value in pub.data.evs)
    return _digest(entries)


def service_digest(store) -> str:
    with RuntimeService(str(store), max_workers=1) as service:
        job = service.submit(_batch(), shots=300, seed=2033, memory=True,
                             noise_model=_noise(), shot_chunk_size=128)
        result = job.result(timeout=120)
    return _digest(_result_entries(result))


def resume_digest(path) -> str:
    job = Aer.get_backend("qasm_simulator").run(
        [_composite(), _ghz(4)], shots=900, seed=2034, memory=True,
        noise_model=_noise(), shot_chunk_size=256, checkpoint=str(path),
    )
    stream = job.stream()
    for _ in range(3):
        next(stream)  # three chunk records persisted, then the job is cut
    resumed = Job.resume(str(path))
    result = resumed.result()
    assert resumed.fault_stats["resumed_chunks"] == 3
    return _digest(_result_entries(result))


def pipeline_digests(tmp_dir) -> dict:
    """sha256 over every case's seeded output, per case."""
    import pathlib

    tmp_dir = pathlib.Path(tmp_dir)
    digests = {
        name: backend_digest(name)
        for name in ("qasm_simulator", "density_matrix_simulator",
                     "dd_simulator", "stabilizer_simulator")
    }
    digests.update({
        "estimator": estimator_digest(),
        "execute_chunked": execute_digest(True),
        "execute_unchunked": execute_digest(False),
        "resume": resume_digest(tmp_dir / "resume.jsonl"),
        "sampler": sampler_digest(),
        "service": service_digest(tmp_dir / "store"),
    })
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", [
    "qasm_simulator", "density_matrix_simulator", "dd_simulator",
    "stabilizer_simulator",
])
def test_backend_run_matches_golden_digest(name, executor):
    assert backend_digest(name, executor) == GOLDEN[name]


@pytest.mark.parametrize("chunked", [False, True],
                         ids=["unchunked", "chunked"])
def test_execute_on_device_matches_golden_digest(chunked):
    key = "execute_chunked" if chunked else "execute_unchunked"
    assert execute_digest(chunked) == GOLDEN[key]


def test_sampler_pubs_match_golden_digest():
    assert sampler_digest() == GOLDEN["sampler"]


def test_estimator_pubs_match_golden_digest():
    assert estimator_digest() == GOLDEN["estimator"]


def test_service_job_matches_golden_digest(tmp_path):
    assert service_digest(tmp_path / "store") == GOLDEN["service"]


def test_resumed_job_matches_golden_digest(tmp_path):
    assert resume_digest(tmp_path / "resume.jsonl") == GOLDEN["resume"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for key, value in pipeline_digests(scratch).items():
            print(f"    {key!r}: {value!r},")
