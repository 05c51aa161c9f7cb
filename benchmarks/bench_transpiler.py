"""Benchmark the DAG-based transpiler pipeline.

Run as a script to emit ``BENCH_transpiler.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_transpiler.py [--fast]

(``--fast`` writes ``BENCH_transpiler.fast.json`` instead, so a smoke run
leaves the checked-in numbers alone.)

Three aspects are measured:

* **Per-level compilation quality** — CX count, depth, total size, and
  wall time for each optimization level on QFT / Grover / random workloads
  mapped to ibmqx5.  Higher levels should trade wall time for fewer CNOTs.
* **Transpile cache** — hit rate and the cached:cold wall-time speedup for
  a repeated compile of the same workload (``cache_speedup`` is gated by
  ``compare_bench.py``).
* **Diagonal fusion** — a 20-qubit QFT sampling workload compiled for the
  qasm simulator with and without :class:`FuseDiagonalGates`.  The JSON
  records the applied-gate count both ways (fused must be lower — the
  script asserts it) and the end-to-end sampling speedup.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.algorithms.grover import grover_circuit  # noqa: E402
from repro.algorithms.qft import qft_circuit  # noqa: E402
from repro.circuit.random_circuit import random_circuit  # noqa: E402
from repro.providers.aer import Aer  # noqa: E402
from repro.transpiler.cache import (  # noqa: E402
    clear_transpile_cache,
    get_transpile_cache,
)
from repro.transpiler.preset import transpile  # noqa: E402

OUTPUT_PATH = _ROOT / "BENCH_transpiler.json"

DEVICE = "ibmqx5"
LEVELS = (0, 1, 2, 3)


def workloads(fast: bool) -> list:
    return [
        ("qft", qft_circuit(5 if fast else 6)),
        ("grover", grover_circuit(4, ["1010"], iterations=1)),
        ("random", random_circuit(6, 8 if fast else 16, seed=17)),
    ]


def bench_levels(fast: bool) -> dict:
    """Compilation quality and wall time per optimization level."""
    per_level: dict = {}
    for level in LEVELS:
        entry: dict = {}
        total_wall = 0.0
        for name, circuit in workloads(fast):
            start = time.perf_counter()
            mapped = transpile(
                circuit, coupling_map=DEVICE, optimization_level=level,
                seed=11, transpile_cache=False,
            )
            wall = time.perf_counter() - start
            total_wall += wall
            ops = mapped.count_ops()
            entry[name] = {
                "cx_count": ops.get("cx", 0),
                "depth": mapped.depth(),
                "size": mapped.size(),
                "wall_s": round(wall, 4),
            }
        entry["transpiles_per_s"] = round(len(workloads(fast)) / total_wall,
                                          2)
        per_level[f"level_{level}"] = entry
    return per_level


def bench_cache(fast: bool) -> dict:
    """Cold vs cached wall time and hit rate for a repeated compile."""
    clear_transpile_cache()
    circuit = qft_circuit(5 if fast else 6)
    start = time.perf_counter()
    transpile(circuit, coupling_map=DEVICE, optimization_level=2, seed=11)
    cold = time.perf_counter() - start
    repeats = 5
    start = time.perf_counter()
    for _ in range(repeats):
        transpile(circuit, coupling_map=DEVICE, optimization_level=2,
                  seed=11)
    cached = (time.perf_counter() - start) / repeats
    stats = get_transpile_cache().stats()
    hit_rate = stats["hits"] / max(1, stats["hits"] + stats["misses"])
    clear_transpile_cache()
    return {
        "cold_wall_s": round(cold, 4),
        "cached_wall_s": round(cached, 6),
        "hit_rate": round(hit_rate, 4),
        "cache_speedup": round(cold / max(cached, 1e-9), 1),
    }


def bench_fusion(fast: bool) -> dict:
    """Applied-gate count and sampling wall time, fused vs unfused."""
    num_qubits = 16 if fast else 20
    shots = 512
    circuit = qft_circuit(num_qubits)
    circuit.measure_all()
    backend = Aer.get_backend("qasm_simulator")
    results: dict = {}
    timings: dict = {}
    for label, fuse in (("unfused", False), ("fused", True)):
        compiled = transpile(
            circuit, backend=backend, fuse_diagonals=fuse,
            transpile_cache=False,
        )
        gates = sum(
            1 for item in compiled.data
            if item.operation.name not in ("measure", "barrier")
        )
        start = time.perf_counter()
        counts = backend.run(compiled, shots=shots, seed=7).result()
        wall = time.perf_counter() - start
        if not counts.success:
            raise RuntimeError(f"{label} sampling failed")
        results[label] = gates
        timings[label] = wall
    if results["fused"] >= results["unfused"]:
        raise RuntimeError(
            "FuseDiagonalGates did not reduce the applied-gate count: "
            f"{results['fused']} >= {results['unfused']}"
        )
    return {
        "num_qubits": num_qubits,
        "shots": shots,
        "applied_gates_unfused": results["unfused"],
        "applied_gates_fused": results["fused"],
        "gate_reduction_ratio": round(
            results["unfused"] / results["fused"], 2
        ),
        "sampling_wall_unfused_s": round(timings["unfused"], 4),
        "sampling_wall_fused_s": round(timings["fused"], 4),
        "fusion_sampling_speedup": round(
            timings["unfused"] / max(timings["fused"], 1e-9), 2
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true",
                        help="smaller workloads for CI")
    args = parser.parse_args()
    payload = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "fast": args.fast,
        "device": DEVICE,
        "levels": bench_levels(args.fast),
        "cache": bench_cache(args.fast),
        "fusion": bench_fusion(args.fast),
    }
    # A --fast smoke run never overwrites the checked-in full-run numbers.
    output = (
        OUTPUT_PATH.with_suffix(".fast.json") if args.fast else OUTPUT_PATH
    )
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
