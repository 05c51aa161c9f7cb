"""Qobj-style serialization: circuits <-> JSON-compatible dictionaries.

Terra's role (paper Sec. III) includes "the suitable data structures and
interfaces ... and pass those constructs among the different Qiskit
libraries, and to the hardware".  The 2018-era wire format was the Qobj: a
JSON payload with per-experiment instruction lists over flat qubit/clbit
indices.  ``assemble`` produces that payload, ``disassemble`` reverses it.

The execution pipeline hands the engines circuits instead, snapshot by
:func:`flatten_circuit` (the walk :func:`circuit_to_experiment`
serializes), with the seeds and shot-chunk layout derived below.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.circuit.circuitinstruction import CircuitInstruction
from repro.circuit.library.standard_gates import (
    STANDARD_GATES,
    DiagonalGate,
    UnitaryGate,
    get_standard_gate,
)
from repro.circuit.measure import Barrier, Measure, Reset
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.circuit.register import ClassicalRegister, QuantumRegister
from repro.exceptions import BackendError

_QOBJ_COUNTER = itertools.count()

#: Operations every engine runs as they are; any other is expanded.
_DIRECT_NAMES = {*STANDARD_GATES, "measure", "barrier", "reset", "unitary",
                 "diagonal"}


def _flatten(operation, qubits, clbits, inherited):
    """Yield one instruction's flattened ``CircuitInstruction`` s;
    ``inherited`` is the condition of its composite parent."""
    condition = (inherited if operation.condition is None
                 else operation.condition)
    if operation.name in _DIRECT_NAMES:
        operation = operation.copy()
        operation.condition = condition
        yield CircuitInstruction(operation, qubits, clbits)
        return
    definition = operation.definition
    if definition is None:
        raise BackendError(
            f"cannot assemble '{operation.name}': not a standard gate and "
            "no definition"
        )
    for sub, qpos, cpos in definition:
        yield from _flatten(sub, [qubits[i] for i in qpos],
                            [clbits[i] for i in cpos], condition)


def flatten_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """A snapshot of ``circuit`` that every engine can run, in one
    flattening walk: same name and registers, operations copied.

    Standard gates, ``unitary`` and ``diagonal`` gates, measure, barrier
    and reset are kept; any other operation is expanded through its
    definition, recursively, and each expanded operation without a
    condition of its own inherits its parent's.  An operation with neither
    a standard name nor a definition raises :class:`BackendError`.
    Editing ``circuit`` afterwards leaves the snapshot as it was.
    """
    snapshot = circuit.copy_empty_like()
    snapshot.data = [
        flat for item in circuit.data
        for flat in _flatten(item.operation, item.qubits, item.clbits, None)
    ]
    return snapshot


def _serialize_operation(operation, qubit_indices, clbit_indices) -> dict:
    """One instruction dict of a flattened operation."""
    name = operation.name
    entry: dict = {"name": name, "qubits": qubit_indices}
    if operation.condition is not None:
        register, value = operation.condition
        entry["conditional"] = {"register": register.name, "value": value}
    if name == "measure":
        entry["memory"] = clbit_indices
    elif name == "unitary":
        entry["params"] = [
            [[float(cell.real), float(cell.imag)] for cell in row]
            for row in operation.to_matrix()
        ]
    elif name == "diagonal":
        entry["params"] = [
            [float(cell.real), float(cell.imag)]
            for cell in operation.diagonal
        ]
    elif operation.params:
        # An unbound parameter raises here: a Qobj carries numbers only.
        entry["params"] = [float(p) for p in operation.params]
    return entry


def circuit_to_experiment(circuit: QuantumCircuit) -> dict:
    """Serialize one circuit, flattened by :func:`flatten_circuit`, to an
    experiment dictionary."""
    qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
    clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
    instructions = [
        _serialize_operation(
            item.operation,
            [qubit_index[q] for q in item.qubits],
            [clbit_index[c] for c in item.clbits],
        )
        for item in flatten_circuit(circuit).data
    ]
    return {
        "header": {
            "name": circuit.name,
            "n_qubits": circuit.num_qubits,
            "memory_slots": circuit.num_clbits,
            "qreg_sizes": [[reg.name, reg.size] for reg in circuit.qregs],
            "creg_sizes": [[reg.name, reg.size] for reg in circuit.cregs],
        },
        "instructions": instructions,
    }


def derive_experiment_seeds(seed, count: int) -> list:
    """One deterministic seed per experiment from a batch seed.

    Expanding the batch seed through a :class:`numpy.random.SeedSequence`
    at assemble time (rather than seeding every experiment identically, or
    letting each worker draw) is what makes results bit-identical across
    the serial, thread, and process executors.  ``seed=None`` stays None
    for every experiment (fresh entropy per run).
    """
    if seed is None:
        return [None] * count
    sequence = np.random.SeedSequence(int(seed))
    return [int(s) for s in sequence.generate_state(count, dtype=np.uint64)]


#: Shots per chunk when an experiment's shots are split into shot-chunks.
#: Runs at or below this size stay a single chunk, whose seed is the
#: experiment seed itself — exactly the unchunked pipeline.
DEFAULT_SHOT_CHUNK_SIZE = 16384


def shot_chunk_bounds(shots: int, chunk_size=None) -> list:
    """Split ``shots`` into ``(start, stop)`` shot-chunk bounds.

    The layout is a pure function of ``(shots, chunk_size)`` — never of
    the executor kind, worker count, or host — so each chunk, one
    dispatched payload, is the same unit whichever pool runs it and
    whether ``Job.resume`` re-runs it.  ``chunk_size`` of None means
    :data:`DEFAULT_SHOT_CHUNK_SIZE`; False (or anything falsy but not
    None) disables splitting entirely.
    """
    if shots < 1:
        raise BackendError("shots must be positive")
    if chunk_size is None:
        chunk_size = DEFAULT_SHOT_CHUNK_SIZE
    if not chunk_size or shots <= int(chunk_size):
        return [(0, shots)]
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise BackendError("shot_chunk_size must be positive")
    return [
        (start, min(start + chunk_size, shots))
        for start in range(0, shots, chunk_size)
    ]


def derive_chunk_seeds(experiment_seed, count: int) -> list:
    """One deterministic seed per shot-chunk payload from the experiment
    seed.

    A single chunk keeps the experiment seed unchanged, so runs that do
    not split (shots within the chunk size, chunking disabled, or a
    backend that draws every shot from one state) are bit-identical to
    the unchunked pipeline.  Multi-chunk layouts expand the experiment
    seed through the same :class:`numpy.random.SeedSequence`
    construction that derives experiment seeds from the batch seed —
    fixed at assemble time, so a chunk re-run by the retry path, another
    executor, or ``Job.resume`` reproduces its counts bit-identically.
    """
    if count == 1:
        return [experiment_seed]
    return derive_experiment_seeds(experiment_seed, count)


def assemble(circuits, shots: int = 1024, seed=None,
             memory: bool = False) -> dict:
    """Bundle circuits into a Qobj-style dictionary.

    The batch-level config records the caller's ``seed``; each experiment
    additionally carries its own derived seed (see
    :func:`derive_experiment_seeds`).
    """
    if not isinstance(circuits, (list, tuple)):
        circuits = [circuits]
    if not circuits:
        raise BackendError("nothing to assemble")
    experiments = [circuit_to_experiment(c) for c in circuits]
    for index, (experiment, exp_seed) in enumerate(zip(
        experiments, derive_experiment_seeds(seed, len(experiments))
    )):
        # The index is the experiment's stable identity within the batch:
        # retries and executor fallbacks re-run by index with this same
        # derived seed, which is what keeps them bit-identical.
        experiment["config"] = {"seed": exp_seed, "index": index}
    return {
        "qobj_id": f"qobj-{next(_QOBJ_COUNTER)}",
        "type": "QASM",
        "schema_version": "1.3.0",
        "config": {"shots": shots, "seed": seed, "memory": memory},
        "experiments": experiments,
    }


def experiment_to_circuit(experiment: dict) -> QuantumCircuit:
    """Rebuild a circuit from an experiment dictionary."""
    header = experiment["header"]
    circuit = QuantumCircuit(name=header.get("name", "qobj-circuit"))
    cregs_by_name = {}
    for name, size in header.get("qreg_sizes", []):
        circuit.add_register(QuantumRegister(size, name))
    for name, size in header.get("creg_sizes", []):
        register = ClassicalRegister(size, name)
        cregs_by_name[name] = register
        circuit.add_register(register)
    if circuit.num_qubits != header.get("n_qubits", circuit.num_qubits):
        raise BackendError("header qubit count mismatch")
    qubits = circuit.qubits
    clbits = circuit.clbits
    for entry in experiment["instructions"]:
        name = entry["name"]
        qargs = [qubits[i] for i in entry.get("qubits", [])]
        cargs = [clbits[i] for i in entry.get("memory", [])]
        if name == "measure":
            operation = Measure()
        elif name == "barrier":
            operation = Barrier(len(qargs))
        elif name == "reset":
            operation = Reset()
        elif name == "unitary":
            operation = UnitaryGate(np.array([
                [complex(re, im) for re, im in row] for row in entry["params"]
            ]))
        elif name == "diagonal":
            operation = DiagonalGate(
                np.array([complex(re, im) for re, im in entry["params"]])
            )
        else:
            operation = get_standard_gate(name, entry.get("params", []))
        if "conditional" in entry:
            condition = entry["conditional"]
            register = cregs_by_name.get(condition["register"])
            if register is None:
                raise BackendError(
                    f"conditional on unknown register "
                    f"'{condition['register']}'"
                )
            operation.condition = (register, condition["value"])
        circuit.data.append(CircuitInstruction(operation, qargs, cargs))
    return circuit


def disassemble(qobj: dict):
    """Rebuild ``(circuits, config)`` from a Qobj dictionary."""
    if qobj.get("type") != "QASM":
        raise BackendError(f"unsupported qobj type {qobj.get('type')!r}")
    circuits = [
        experiment_to_circuit(e) for e in qobj.get("experiments", [])
    ]
    return circuits, dict(qobj.get("config", {}))
