"""Benchmark shot-chunk streaming: parallel chunks and time-to-first-chunk.

Run as a script to emit ``BENCH_streaming.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--fast]

(``--fast`` writes ``BENCH_streaming.fast.json`` instead, so a smoke run
leaves the checked-in numbers alone.)

One noisy trajectory experiment (the paper's few-circuits/many-shots
regime) is run three ways:

* **serial, unchunked** — the pre-chunking pipeline: one payload, one
  worker, full shot count.
* **serial, chunked** — same worker, but the engine splits shots into
  chunk payloads; measures pure chunking overhead.
* **processes, chunked** — one payload per chunk dispatched across the
  process pool; this is the configuration the refactor exists for.

Bit-identity between the two *chunked* runs is asserted (each chunk
re-derives its seed from the experiment's SeedSequence, so the merged
histogram cannot depend on scheduling).  The unchunked run uses the
experiment's own seed — a different but equally valid sample — so it is
a timing baseline only.  The acceptance target — chunk-parallel >= 2x
serial — only applies on multi-core hosts; ``cpu_count`` is recorded so
single-core runs read as informational.

The second section measures streaming latency: time until
``job.stream()`` yields its first chunk event vs the full ``result()``
wall time.  With N chunks the first histogram increment should arrive in
roughly ``1/N`` of the total runtime.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.circuit import QuantumCircuit  # noqa: E402
from repro.providers.aer import QasmSimulatorBackend  # noqa: E402
from repro.simulators.noise import (  # noqa: E402
    NoiseModel,
    amplitude_damping_error,
    depolarizing_error,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_streaming.json"

NUM_QUBITS = 5
SHOTS = 100_000
CHUNK_SIZE = 12_500  # -> 8 chunks
SEED = 2024
TRIALS = 2
PARALLEL_SPEEDUP_TARGET = 2.0


def build_circuit(num_qubits: int) -> QuantumCircuit:
    """The benchmark experiment: a measured GHZ state."""
    circuit = QuantumCircuit(num_qubits, num_qubits, name="ghz-stream")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(num_qubits):
        circuit.measure(qubit, qubit)
    return circuit


def build_noise_model() -> NoiseModel:
    """Amplitude damping is non-unitary Kraus noise, so every shot runs
    as its own trajectory — the slow path chunk dispatch exists for."""
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), ["h"])
    model.add_all_qubit_quantum_error(amplitude_damping_error(0.03), ["x"])
    model.add_all_qubit_quantum_error(
        depolarizing_error(0.02, 1).tensor(amplitude_damping_error(0.03)),
        ["cx"],
    )
    return model


def run_once(circuit, noise_model, shots, chunk_size, *, executor):
    """One timed submission; returns (wall_seconds, counts dict).

    The run is noisy, so a nonzero ``chunk_size`` splits it into one
    payload per chunk.
    """
    backend = QasmSimulatorBackend()
    start = time.perf_counter()
    result = backend.run(
        [circuit], shots=shots, seed=SEED, noise_model=noise_model,
        executor=executor, shot_chunk_size=chunk_size,
    ).result()
    wall = time.perf_counter() - start
    if not result.success:
        raise RuntimeError(f"{executor} run failed: {result.results}")
    return wall, dict(result.get_counts())


def measure_first_chunk(circuit, noise_model, shots, chunk_size,
                        executor) -> dict:
    """Latency to the first streamed chunk vs the full merged result."""
    backend = QasmSimulatorBackend()
    job = backend.run(
        [circuit], shots=shots, seed=SEED, noise_model=noise_model,
        executor=executor, shot_chunk_size=chunk_size,
    )
    start = time.perf_counter()
    first = None
    events = 0
    for event in job.stream():
        if first is None and event["type"] == "chunk":
            first = time.perf_counter() - start
        events += 1
    full = time.perf_counter() - start
    return {
        "time_to_first_chunk_s": round(first, 4),
        "full_result_s": round(full, 4),
        "first_chunk_fraction": round(first / full, 3),
        "stream_events": events,
    }


def main(argv=None) -> int:
    fast = "--fast" in (argv if argv is not None else sys.argv[1:])
    shots = 4_000 if fast else SHOTS
    chunk_size = 500 if fast else CHUNK_SIZE
    circuit = build_circuit(NUM_QUBITS)
    noise_model = build_noise_model()
    cpu_count = os.cpu_count() or 1
    num_chunks = -(-shots // chunk_size)
    print(
        f"streaming pipeline: 1 x GHZ(n={NUM_QUBITS}) + damping noise "
        f"(trajectories), {shots} shots in {num_chunks} chunks, "
        f"seed={SEED}, {cpu_count} CPUs"
    )

    modes = {
        "serial_unchunked": {"executor": "serial", "chunk_size": 0},
        "serial_chunked": {"executor": "serial", "chunk_size": chunk_size},
        "processes_chunked": {"executor": "processes",
                              "chunk_size": chunk_size},
    }
    walls: dict = {}
    reference = None
    for label, mode in modes.items():
        best = float("inf")
        for _ in range(TRIALS):
            wall, counts = run_once(
                circuit, noise_model, shots, mode["chunk_size"],
                executor=mode["executor"],
            )
            best = min(best, wall)
            if mode["chunk_size"]:
                # Both chunked modes share one layout, so their merged
                # histograms must be bit-identical.
                if reference is None:
                    reference = counts
                elif counts != reference:
                    raise AssertionError(
                        f"{label} counts differ from serial_chunked — "
                        "chunk-seed determinism regression"
                    )
        walls[label] = best
        print(f"  {label:18s}: {best:7.3f}s wall "
              f"({shots / best:9.0f} shots/s)")

    print("streaming latency (processes, chunk dispatch):")
    latency = measure_first_chunk(
        circuit, noise_model, shots, chunk_size, "processes"
    )
    print(
        f"  first chunk after {latency['time_to_first_chunk_s']}s of "
        f"{latency['full_result_s']}s total "
        f"({latency['first_chunk_fraction']:.0%})"
    )

    speedups = {
        label: round(walls["serial_unchunked"] / wall, 2)
        for label, wall in walls.items()
    }
    multi_core = cpu_count >= 2
    payload = {
        "suite": "streaming",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "fast_mode": fast,
        "workload": {
            "num_qubits": NUM_QUBITS,
            "shots": shots,
            "chunk_size": chunk_size,
            "num_chunks": num_chunks,
            "seed": SEED,
            "noise": "depolarizing h + amplitude damping x/cx "
                     "(non-unitary -> trajectory path)",
        },
        "bit_identical": True,  # asserted above for every mode
        "wall_seconds": {k: round(v, 4) for k, v in walls.items()},
        "shots_per_s": {k: round(shots / v) for k, v in walls.items()},
        "speedup_vs_serial": speedups,
        "latency": latency,
        "acceptance": {
            "chunk_parallel_speedup": speedups["processes_chunked"],
            "chunk_parallel_speedup_target": PARALLEL_SPEEDUP_TARGET,
            "target_applies": multi_core,
        },
    }
    # A --fast smoke run never overwrites the checked-in full-run numbers.
    output = OUTPUT_PATH.with_suffix(".fast.json") if fast else OUTPUT_PATH
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {output}")
    if not multi_core:
        status = "informational (single-core host)"
    elif speedups["processes_chunked"] >= PARALLEL_SPEEDUP_TARGET:
        status = "ok"
    else:
        status = f"BELOW TARGET (>={PARALLEL_SPEEDUP_TARGET}x)"
    print(
        f"  processes_chunked: {speedups['processes_chunked']:.2f}x vs "
        f"serial_unchunked  [{status}]"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
