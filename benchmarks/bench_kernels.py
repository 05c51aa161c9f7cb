"""Microbenchmarks for the specialized simulation kernels.

Run as a script to emit ``BENCH_kernels.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--fast]

(``--fast`` writes ``BENCH_kernels.fast.json`` instead, so a smoke run
leaves the checked-in numbers alone.)

What is measured, and against what baseline:

* **Gate application** (op/s): the kernel layer with ``mutate=True`` — the
  calling convention the simulators actually use — against the generic
  pure ``apply_matrix`` path the seed tree used for every gate.  Classes:
  1q dense (Hadamard), 1q diagonal (T), CX, and a generic dense 2q
  unitary, at n = 10..20.  Kernel speedups vary strongly with the target
  qubit (stride), so every target position is swept at n <= 16 and the
  per-size numbers are reported as mean/min/max over the sweep; large
  sizes sample low/mid/high targets.

* **Ideal-mode shot sampling** (shots/s): ``QasmSimulator.run`` on a QFT
  circuit against an in-file replica of the seed implementation (generic
  ``apply_matrix`` per gate, uncached ``_compute_matrix``, ``rng.choice``
  sampling, per-shot ``format`` counting) — i.e. the true "before" cost,
  not just the kernels toggled off.

* **Trajectory mode** (shots/s): a mid-circuit-measurement circuit, which
  forces per-shot simulation, with kernels on vs ``kernels.disabled()``.
  Both sides share the vectorized shot loop, so this isolates the kernel
  contribution to the trajectory engine.

Timings are min-of-trials with the two paths interleaved, which keeps the
comparison honest on noisy shared machines.  Subsequent PRs diff the JSON
to catch perf regressions.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.circuit.matrix_utils import apply_matrix  # noqa: E402
from repro.circuit.quantumcircuit import QuantumCircuit  # noqa: E402
from repro.simulators import kernels  # noqa: E402
from repro.simulators.qasm_simulator import QasmSimulator  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_kernels.json"

GATE_SIZES = [10, 12, 14, 16, 18, 20]
FULL_SWEEP_MAX = 16  # sweep every target position up to this size
SAMPLING_SHOTS = 8192
SAMPLING_SIZES = [16, 20]  # acceptance headline is the largest
TRAJECTORY_QUBITS = 10
TRAJECTORY_SHOTS = 200


def _interleaved(fast_fn, slow_fn, trials, repeats=1):
    """Min-of-trials for both paths, alternating so machine drift hits both."""
    fast = slow = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(repeats):
            fast_fn()
        fast = min(fast, (time.perf_counter() - start) / repeats)
        start = time.perf_counter()
        for _ in range(repeats):
            slow_fn()
        slow = min(slow, (time.perf_counter() - start) / repeats)
    return fast, slow


def _random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _gate_cases(rng):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    cx = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
        dtype=complex,
    )
    return [
        ("1q", np.ascontiguousarray(h), 1),
        ("diag", np.ascontiguousarray(t), 1),
        ("cx", np.ascontiguousarray(cx), 2),
        ("dense2q", np.ascontiguousarray(_random_unitary(rng, 4)), 2),
    ]


def _target_sweep(num_qubits, arity, full):
    """Target positions to measure: every stride, or low/mid/high samples."""
    if arity == 1:
        positions = list(range(num_qubits))
        if not full:
            positions = [0, num_qubits // 2, num_qubits - 1]
        return [[t] for t in positions]
    pairs = [[t, t + 1] for t in range(num_qubits - 1)]
    if not full:
        pairs = [[0, 1], [num_qubits // 2, num_qubits // 2 + 1],
                 [num_qubits - 2, num_qubits - 1]]
    return pairs


def bench_gate_kernels(fast: bool) -> dict:
    rng = np.random.default_rng(42)
    sizes = [12, 16] if fast else GATE_SIZES
    results: dict = {}
    for num_qubits in sizes:
        state = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(
            2**num_qubits
        )
        state = np.ascontiguousarray(state / np.linalg.norm(state))
        full = num_qubits <= FULL_SWEEP_MAX
        trials = 3 if (fast or num_qubits >= 18) else 5
        repeats = 1 if num_qubits >= 16 else 4
        per_size: dict = {}
        for label, matrix, arity in _gate_cases(rng):
            speedups = []
            kernel_total = generic_total = 0.0
            for targets in _target_sweep(num_qubits, arity, full):
                # The simulators call the kernels with mutate=True and keep
                # only the returned array; benchmark that calling convention.
                holder = [state.copy()]

                def kernel_call():
                    holder[0] = kernels.apply_unitary(
                        holder[0], matrix, targets, num_qubits, mutate=True
                    )

                def generic_call():
                    apply_matrix(state, matrix, targets, num_qubits)

                kernel_s, generic_s = _interleaved(
                    kernel_call, generic_call, trials, repeats
                )
                speedups.append(generic_s / kernel_s)
                kernel_total += kernel_s
                generic_total += generic_s
            count = len(speedups)
            per_size[label] = {
                "targets_swept": count,
                "kernel_ops_per_s": round(count / kernel_total, 1),
                "generic_ops_per_s": round(count / generic_total, 1),
                "mean_speedup": round(float(np.mean(speedups)), 2),
                "min_speedup": round(float(np.min(speedups)), 2),
                "max_speedup": round(float(np.max(speedups)), 2),
            }
        results[f"n={num_qubits}"] = per_size
        print(
            f"  n={num_qubits:2d}: "
            + "  ".join(
                f"{label} {data['mean_speedup']:5.1f}x"
                for label, data in per_size.items()
            )
        )
    return results


def qft_circuit(num_qubits: int) -> QuantumCircuit:
    """QFT on a non-trivial input state, measured on every qubit.

    The canonical sampling workload from the paper's Shor/QPE discussion:
    dense 1q gates, a quadratic number of controlled-phase (diagonal)
    gates, and a swap network.
    """
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for qubit in range(0, num_qubits, 2):
        circuit.x(qubit)
    for j in reversed(range(num_qubits)):
        circuit.h(j)
        for k in reversed(range(j)):
            circuit.cu1(np.pi / 2 ** (j - k), k, j)
    for qubit in range(num_qubits // 2):
        circuit.swap(qubit, num_qubits - 1 - qubit)
    for qubit in range(num_qubits):
        circuit.measure(qubit, qubit)
    return circuit


def seed_run(circuit: QuantumCircuit, shots: int, rng) -> dict:
    """Faithful replica of the seed tree's ideal sampling path.

    Generic ``apply_matrix`` per gate, a fresh ``_compute_matrix()`` each
    time (the seed had no matrix cache), ``rng.choice`` over the full
    distribution, and the per-shot ``format``-and-dict counting loop.
    Kept in-file so the baseline stays measurable after the seed code is
    gone.
    """
    num_qubits = circuit.num_qubits
    qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
    clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    qubit_to_clbit: dict = {}
    for item in circuit.data:
        operation = item.operation
        if operation.name == "barrier":
            continue
        if operation.name == "measure":
            qubit_to_clbit[qubit_index[item.qubits[0]]] = clbit_index[
                item.clbits[0]
            ]
            continue
        targets = [qubit_index[q] for q in item.qubits]
        state = apply_matrix(
            state, operation._compute_matrix(), targets, num_qubits
        )
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    outcomes = np.asarray(rng.choice(len(probs), size=shots, p=probs))
    values = np.zeros(shots, dtype=np.int64)
    for qubit, clbit in qubit_to_clbit.items():
        values |= ((outcomes >> qubit) & 1) << clbit
    width = circuit.num_clbits
    counts: dict = {}
    for value in values.tolist():
        key = format(value, f"0{width}b")
        counts[key] = counts.get(key, 0) + 1
    return {"counts": counts, "shots": shots}


def bench_sampling(fast: bool) -> dict:
    simulator = QasmSimulator()
    results: dict = {}
    sizes = SAMPLING_SIZES[:1] if fast else SAMPLING_SIZES
    for num_qubits in sizes:
        circuit = qft_circuit(num_qubits)

        def kernel_fn():
            simulator.run(circuit, shots=SAMPLING_SHOTS, seed=1)

        def seed_fn():
            seed_run(circuit, SAMPLING_SHOTS, np.random.default_rng(1))

        kernel_s, seed_s = _interleaved(kernel_fn, seed_fn, trials=3)
        entry = {
            "num_qubits": num_qubits,
            "shots": SAMPLING_SHOTS,
            "kernel_shots_per_s": round(SAMPLING_SHOTS / kernel_s, 1),
            "seed_shots_per_s": round(SAMPLING_SHOTS / seed_s, 1),
            "speedup": round(seed_s / kernel_s, 2),
        }
        results[f"n={num_qubits}"] = entry
        print(
            f"  sampling n={num_qubits} shots={SAMPLING_SHOTS}: "
            f"{entry['kernel_shots_per_s']:.0f} vs "
            f"{entry['seed_shots_per_s']:.0f} shots/s (seed) "
            f"-> {entry['speedup']:.1f}x"
        )
    results["headline"] = results[f"n={sizes[-1]}"]
    return results


def _trajectory_circuit(num_qubits: int) -> QuantumCircuit:
    """Mid-circuit measurement forces the per-shot trajectory engine."""
    circuit = QuantumCircuit(num_qubits, num_qubits)
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(num_qubits):
        circuit.t(qubit)
    circuit.measure(0, 0)  # mid-circuit: disables the sampling path
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(num_qubits):
        circuit.measure(qubit, qubit)
    return circuit


def bench_trajectory(fast: bool) -> dict:
    circuit = _trajectory_circuit(TRAJECTORY_QUBITS)
    simulator = QasmSimulator()

    def kernel_fn():
        simulator.run(circuit, shots=TRAJECTORY_SHOTS, seed=1)

    def generic_fn():
        with kernels.disabled():
            simulator.run(circuit, shots=TRAJECTORY_SHOTS, seed=1)

    kernel_s, generic_s = _interleaved(
        kernel_fn, generic_fn, trials=3 if fast else 5
    )
    result = {
        "num_qubits": TRAJECTORY_QUBITS,
        "shots": TRAJECTORY_SHOTS,
        "kernel_shots_per_s": round(TRAJECTORY_SHOTS / kernel_s, 1),
        "generic_shots_per_s": round(TRAJECTORY_SHOTS / generic_s, 1),
        "speedup": round(generic_s / kernel_s, 2),
    }
    print(
        f"  trajectory n={TRAJECTORY_QUBITS} shots={TRAJECTORY_SHOTS}: "
        f"{result['kernel_shots_per_s']:.0f} vs "
        f"{result['generic_shots_per_s']:.0f} shots/s "
        f"({result['speedup']:.1f}x)"
    )
    return result


def main(argv=None) -> int:
    fast = "--fast" in (argv if argv is not None else sys.argv[1:])
    print("gate kernels (mean speedup over target sweep, mutate=True"
          " kernel vs generic apply_matrix):")
    gate_results = bench_gate_kernels(fast)
    print("shot execution:")
    sampling = bench_sampling(fast)
    trajectory = bench_trajectory(fast)
    headline = sampling["headline"]
    n16 = gate_results.get("n=16", {})
    acceptance = {
        "gate_n16_targets": {
            label: n16.get(label, {}).get("mean_speedup", 0.0)
            for label in ("1q", "diag", "cx")
        },
        "gate_n16_threshold": 5.0,
        "sampling_headline": headline["speedup"],
        "sampling_threshold": 10.0,
    }
    payload = {
        "suite": "kernels",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "fast_mode": fast,
        "gate_kernels": gate_results,
        "sampling": sampling,
        "trajectory": trajectory,
        "acceptance": acceptance,
    }
    # A --fast smoke run never overwrites the checked-in full-run numbers.
    output = OUTPUT_PATH.with_suffix(".fast.json") if fast else OUTPUT_PATH
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {output}")
    for label, speedup in acceptance["gate_n16_targets"].items():
        status = "ok" if speedup >= 5.0 else "BELOW TARGET (>=5x)"
        print(f"  n=16 {label}: {speedup:.1f}x mean  [{status}]")
    if fast and headline["num_qubits"] != SAMPLING_SIZES[-1]:
        # --fast skips the n=20 headline; its threshold doesn't apply.
        status = "informational (--fast)"
    elif headline["speedup"] >= 10.0:
        status = "ok"
    else:
        status = "BELOW TARGET (>=10x)"
    print(
        f"  sampling n={headline['num_qubits']}: "
        f"{headline['speedup']:.1f}x vs seed  [{status}]"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
