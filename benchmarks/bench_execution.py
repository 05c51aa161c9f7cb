"""Benchmark the execution pipeline's scheduling layer.

Run as a script to emit ``BENCH_execution.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_execution.py [--fast]

(``--fast`` writes ``BENCH_execution.fast.json`` instead, so a smoke run
leaves the checked-in numbers alone.)

A seeded 16-circuit QFT batch is pushed through ``QasmSimulatorBackend``
once per executor (serial, threads, processes).  Three things are
reported:

* **Bit-identity** — the per-experiment counts and memory must be equal
  across all three executors; the script *asserts* this, so a determinism
  regression fails the benchmark rather than silently skewing numbers.
* **Throughput** — experiments/s per executor, best of ``TRIALS`` runs.
  Pool start-up and payload pickling are deliberately inside the timed
  region: that is the real cost a user pays for ``executor="processes"``.
* **Speedup** — parallel wall time vs serial.  The acceptance target
  (processes >= 2x serial) only applies on multi-core hosts; the JSON
  records ``cpu_count`` so single-core runs are read as informational.

The per-experiment ``time_taken`` metadata is also aggregated, which
separates simulation time from scheduling overhead.

A small chaos section exercises the fault-tolerance layer: a seeded
transient fault retried on the thread executor and a real worker crash
degraded from the process pool, both asserted bit-identical to the
fault-free reference; the retry/fallback counters from
``job.fault_stats`` land in the JSON artifact.
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

from benchmarks.bench_kernels import qft_circuit  # noqa: E402
from repro.providers.aer import QasmSimulatorBackend  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_execution.json"

EXECUTORS = ("serial", "threads", "processes")
NUM_CIRCUITS = 16
NUM_QUBITS = 14
SHOTS = 2048
SEED = 2023
TRIALS = 2
PROCESS_SPEEDUP_TARGET = 2.0


def build_batch(num_circuits: int, num_qubits: int) -> list:
    """The benchmark batch: QFT circuits, each named for result lookup."""
    batch = []
    for index in range(num_circuits):
        circuit = qft_circuit(num_qubits)
        circuit.name = f"qft-{index}"
        batch.append(circuit)
    return batch


def run_once(batch, executor: str, shots: int):
    """One timed submission; returns (wall_seconds, Result)."""
    backend = QasmSimulatorBackend()
    start = time.perf_counter()
    result = backend.run(
        batch, shots=shots, seed=SEED, memory=True, executor=executor
    ).result()
    wall = time.perf_counter() - start
    if not result.success:
        raise RuntimeError(f"{executor} batch failed: {result.results}")
    return wall, result


def snapshot(result, batch) -> list:
    """The comparable payload: per-circuit counts and memory."""
    return [
        (dict(result.get_counts(c.name)), tuple(result.get_memory(c.name)))
        for c in batch
    ]


def bench_fault_tolerance(num_qubits: int, shots: int) -> dict:
    """Chaos counters: retried and degraded runs must stay bit-identical.

    Returns the ``job.fault_stats`` ledgers for a transient-fault run on
    the thread executor and a worker-crash run on the process executor
    (which exercises the processes -> threads degradation chain).
    """
    from repro.providers import FaultInjector, FaultSpec, RetryPolicy

    batch = build_batch(4, num_qubits)
    backend = QasmSimulatorBackend()
    reference = backend.run(
        batch, shots=shots, seed=SEED, executor="serial"
    ).result()
    reference_counts = [dict(reference.get_counts(c.name)) for c in batch]
    policy = RetryPolicy(base_delay=0.0)
    ledgers = {}
    scenarios = [
        ("transient_retry_threads", "threads",
         FaultSpec("transient", experiments=[batch[1].name],
                   attempts=(0,))),
        ("worker_crash_processes", "processes",
         FaultSpec("crash", experiments=[batch[2].name], attempts=(0,))),
    ]
    for label, executor, spec in scenarios:
        job = backend.run(
            batch, shots=shots, seed=SEED, executor=executor,
            fault_injector=FaultInjector([spec], seed=SEED),
            retry_policy=policy,
        )
        result = job.result()
        if not result.success:
            raise RuntimeError(f"{label} batch failed: {result.results}")
        counts = [dict(result.get_counts(c.name)) for c in batch]
        if counts != reference_counts:
            raise AssertionError(
                f"{label} counts differ from the fault-free reference — "
                "retry/degradation determinism regression"
            )
        stats = job.fault_stats
        ledgers[label] = {
            "attempts": stats["attempts"],
            "retries": stats["retries"],
            "faults_injected": stats["faults_injected"],
            "fallbacks": stats["fallbacks"],
            "failed_experiments": stats["failed_experiments"],
        }
        print(
            f"  {label:26s}: attempts={stats['attempts']} "
            f"retries={stats['retries']} fallbacks={stats['fallbacks']}"
        )
    return ledgers


def main(argv=None) -> int:
    fast = "--fast" in (argv if argv is not None else sys.argv[1:])
    num_qubits = 10 if fast else NUM_QUBITS
    shots = 512 if fast else SHOTS
    batch = build_batch(NUM_CIRCUITS, num_qubits)
    cpu_count = os.cpu_count() or 1
    print(
        f"execution pipeline: {NUM_CIRCUITS} x QFT(n={num_qubits}), "
        f"{shots} shots, seed={SEED}, {cpu_count} CPUs"
    )

    walls: dict = {}
    sim_seconds: dict = {}
    reference = None
    for executor in EXECUTORS:
        best = float("inf")
        for _ in range(TRIALS):
            wall, result = run_once(batch, executor, shots)
            best = min(best, wall)
            payload = snapshot(result, batch)
            if reference is None:
                reference = payload
            elif payload != reference:
                raise AssertionError(
                    f"{executor} results differ from serial — determinism "
                    "regression in the execution pipeline"
                )
        walls[executor] = best
        sim_seconds[executor] = sum(
            exp.time_taken for exp in result.results
        )
        print(
            f"  {executor:9s}: {best:7.3f}s wall "
            f"({NUM_CIRCUITS / best:6.2f} exp/s, "
            f"{sim_seconds[executor]:.3f}s in experiments)"
        )

    print("fault tolerance (bit-identity asserted vs fault-free reference):")
    fault_ledgers = bench_fault_tolerance(num_qubits, min(shots, 512))

    speedups = {
        executor: round(walls["serial"] / walls[executor], 2)
        for executor in EXECUTORS
    }
    multi_core = cpu_count >= 2
    payload = {
        "suite": "execution",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "fast_mode": fast,
        "batch": {
            "num_circuits": NUM_CIRCUITS,
            "num_qubits": num_qubits,
            "shots": shots,
            "seed": SEED,
        },
        "bit_identical": True,  # asserted above for every executor
        "wall_seconds": {k: round(v, 4) for k, v in walls.items()},
        "experiments_per_s": {
            k: round(NUM_CIRCUITS / v, 2) for k, v in walls.items()
        },
        "experiment_seconds_sum": {
            k: round(v, 4) for k, v in sim_seconds.items()
        },
        "speedup_vs_serial": speedups,
        "fault_tolerance": {
            "bit_identical_with_faults": True,  # asserted above
            **fault_ledgers,
        },
        "acceptance": {
            "process_speedup": speedups["processes"],
            "process_speedup_target": PROCESS_SPEEDUP_TARGET,
            "target_applies": multi_core,
        },
    }
    # A --fast smoke run never overwrites the checked-in full-run numbers.
    output = OUTPUT_PATH.with_suffix(".fast.json") if fast else OUTPUT_PATH
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {output}")
    if not multi_core:
        status = "informational (single-core host)"
    elif speedups["processes"] >= PROCESS_SPEEDUP_TARGET:
        status = "ok"
    else:
        status = f"BELOW TARGET (>={PROCESS_SPEEDUP_TARGET}x)"
    print(
        f"  processes: {speedups['processes']:.2f}x vs serial  [{status}]"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
