"""Benchmark the primitives layer's parameter-axis broadcasting.

Run as a script to emit ``BENCH_primitives.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_primitives.py [--fast]

(``--fast`` writes ``BENCH_primitives.fast.json`` instead, so a smoke run
leaves the checked-in numbers alone.)

The headline is the PUB fast path: a 256-point parameter sweep of a
12-qubit RY ansatz against a 23-term Hamiltonian (ZZ chain + transverse
X), estimated in shots mode by ``EstimatorV2`` as **one broadcast PUB**
versus the pre-primitives workflow — one ``ExpectationEstimator`` call
per binding.  Three things are reported:

* **Bit-identity** — every broadcast expectation value must equal its
  per-binding reference exactly (same derived per-binding seeds); the
  script *asserts* this, so the speedup can never come from computing
  something different.
* **Speedup** — broadcast wall vs loop wall, best-of-trials for the
  broadcast side, single trial for the (much slower) loop.  The
  acceptance target is >= 10x on the full-size workload.
* **VQE iteration wall-time** — a shots-mode VQE with SPSA run twice,
  once with the batched objective (calibration probes and the per-step
  +/- stencil go out as one PUB each) and once with the vectorized hook
  disabled, reporting seconds per optimizer iteration for both.

An exact-mode section times the same sweep on the statevector path
(broadcast ``(batch, 2**n)`` evolution vs a per-binding simulator loop);
its gain is bounded by arithmetic, not dispatch, so it carries no
acceptance target.
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

from repro.algorithms.ansatz import ry_ansatz  # noqa: E402
from repro.algorithms.expectation import ExpectationEstimator  # noqa: E402
from repro.algorithms.optimizers import SPSA  # noqa: E402
from repro.algorithms.vqe import VQE  # noqa: E402
from repro.primitives import EstimatorV2  # noqa: E402
from repro.qobj.assembler import derive_experiment_seeds  # noqa: E402
from repro.quantum_info.pauli import PauliSumOp  # noqa: E402
from repro.simulators.statevector_simulator import (  # noqa: E402
    StatevectorSimulator,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_primitives.json"

NUM_QUBITS = 12
REPS = 2
BATCH = 256
SHOTS = 1024
SEED = 2019
TRIALS = 2
BROADCAST_SPEEDUP_TARGET = 10.0

VQE_QUBITS = 8
VQE_MAXITER = 10
VQE_CALIBRATION = 5
VQE_SHOTS = 512


def chain_hamiltonian(num_qubits: int) -> PauliSumOp:
    """ZZ nearest-neighbour chain plus a transverse X field.

    ``2n - 1`` Pauli terms (23 at n=12) — enough distinct measurement
    bases that shots-mode estimation is term-dominated, like a real VQE
    chemistry Hamiltonian.
    """
    terms: dict = {}
    for q in range(num_qubits - 1):
        label = ["I"] * num_qubits
        label[num_qubits - 1 - q] = "Z"
        label[num_qubits - 2 - q] = "Z"
        terms["".join(label)] = 1.0
    for q in range(num_qubits):
        label = ["I"] * num_qubits
        label[num_qubits - 1 - q] = "X"
        terms["".join(label)] = 0.5
    return PauliSumOp.from_dict(terms)


def sweep_values(batch: int, num_parameters: int) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    return rng.uniform(-np.pi, np.pi, size=(batch, num_parameters))


def bench_shots_sweep(num_qubits: int, batch: int, shots: int) -> dict:
    """Headline: one shots-mode PUB vs one ExpectationEstimator per row."""
    form = ry_ansatz(num_qubits, reps=REPS)
    hamiltonian = chain_hamiltonian(num_qubits)
    values = sweep_values(batch, form.num_parameters)
    pub = (form.circuit, hamiltonian, values, form.parameters)

    broadcast_wall = float("inf")
    evs = None
    for _ in range(TRIALS):
        estimator = EstimatorV2(mode="shots", seed=SEED)
        start = time.perf_counter()
        result = estimator.run([pub], shots=shots).result()
        broadcast_wall = min(broadcast_wall, time.perf_counter() - start)
        evs = result[0].data.evs
    assert result[0].metadata["path"] == "broadcast"

    seeds = derive_experiment_seeds(SEED, batch)
    start = time.perf_counter()
    reference = np.array([
        ExpectationEstimator(
            hamiltonian, mode="shots", shots=shots, seed=seeds[b]
        ).estimate(
            form.circuit.bind_parameters(dict(zip(form.parameters, row)))
        )
        for b, row in enumerate(values)
    ])
    loop_wall = time.perf_counter() - start

    if evs.tobytes() != reference.tobytes():
        raise AssertionError(
            "broadcast shots-mode EVs differ from the per-binding loop — "
            "seed-layout or engine regression"
        )
    speedup = loop_wall / broadcast_wall
    print(
        f"  shots sweep n={num_qubits} B={batch} "
        f"({len(hamiltonian.terms)} terms, {shots} shots): "
        f"broadcast {broadcast_wall:.3f}s vs loop {loop_wall:.3f}s "
        f"-> {speedup:.1f}x"
    )
    return {
        "num_qubits": num_qubits,
        "num_terms": len(hamiltonian.terms),
        "batch": batch,
        "shots": shots,
        "broadcast_wall_s": round(broadcast_wall, 4),
        "loop_wall_s": round(loop_wall, 4),
        "bindings_per_s": round(batch / broadcast_wall, 2),
        "speedup_broadcast_vs_loop": round(speedup, 2),
        "bit_identical": True,  # asserted above
    }


def bench_exact_sweep(num_qubits: int, batch: int) -> dict:
    """Exact mode: broadcast statevector evolution vs a simulator loop."""
    form = ry_ansatz(num_qubits, reps=REPS)
    hamiltonian = chain_hamiltonian(num_qubits)
    values = sweep_values(batch, form.num_parameters)
    pub = (form.circuit, hamiltonian, values, form.parameters)

    broadcast_wall = float("inf")
    evs = None
    for _ in range(TRIALS):
        estimator = EstimatorV2(mode="exact")
        start = time.perf_counter()
        evs = estimator.run([pub]).result()[0].data.evs
        broadcast_wall = min(broadcast_wall, time.perf_counter() - start)

    engine = StatevectorSimulator()
    start = time.perf_counter()
    reference = np.array([
        hamiltonian.expectation(engine.run(
            form.circuit.bind_parameters(dict(zip(form.parameters, row)))
        ))
        for row in values
    ])
    loop_wall = time.perf_counter() - start

    if evs.tobytes() != reference.tobytes():
        raise AssertionError(
            "broadcast exact EVs differ from the statevector loop"
        )
    speedup = loop_wall / broadcast_wall
    print(
        f"  exact sweep n={num_qubits} B={batch}: "
        f"broadcast {broadcast_wall:.3f}s vs loop {loop_wall:.3f}s "
        f"-> {speedup:.1f}x"
    )
    return {
        "num_qubits": num_qubits,
        "batch": batch,
        "broadcast_wall_s": round(broadcast_wall, 4),
        "loop_wall_s": round(loop_wall, 4),
        "speedup_exact": round(speedup, 2),
        "bit_identical": True,  # asserted above
    }


def bench_vqe_iteration(num_qubits: int, shots: int) -> dict:
    """Shots-mode VQE wall-time per SPSA iteration, batched vs scalar.

    The two runs are statistically equivalent but not bitwise comparable
    (the scalar estimator reuses one seed per call; the batched path
    derives an independent seed per probe point), so only wall time is
    compared here — bit-identity is covered by the sweep sections.
    """
    hamiltonian = chain_hamiltonian(num_qubits)
    walls = {}
    energies = {}
    for label in ("batched", "scalar"):
        vqe = VQE(
            hamiltonian,
            optimizer=SPSA(maxiter=VQE_MAXITER, seed=SEED,
                           calibration_samples=VQE_CALIBRATION),
            mode="shots", shots=shots, seed=SEED,
        )
        if label == "scalar":
            vqe._estimator_v2 = None  # disable the vectorized objective
        start = time.perf_counter()
        outcome = vqe.run()
        walls[label] = time.perf_counter() - start
        energies[label] = outcome.eigenvalue
    speedup = walls["scalar"] / walls["batched"]
    print(
        f"  VQE n={num_qubits} SPSA maxiter={VQE_MAXITER}: "
        f"batched {walls['batched'] / VQE_MAXITER:.3f}s/iter vs scalar "
        f"{walls['scalar'] / VQE_MAXITER:.3f}s/iter -> {speedup:.1f}x"
    )
    return {
        "num_qubits": num_qubits,
        "num_terms": len(hamiltonian.terms),
        "shots": shots,
        "spsa_maxiter": VQE_MAXITER,
        "calibration_samples": VQE_CALIBRATION,
        "batched_wall_s": round(walls["batched"], 4),
        "scalar_wall_s": round(walls["scalar"], 4),
        "batched_s_per_iteration": round(walls["batched"] / VQE_MAXITER, 4),
        "scalar_s_per_iteration": round(walls["scalar"] / VQE_MAXITER, 4),
        "speedup_batched_vs_scalar": round(speedup, 2),
        "eigenvalue_batched": round(energies["batched"], 6),
        "eigenvalue_scalar": round(energies["scalar"], 6),
    }


def main(argv=None) -> int:
    fast = "--fast" in (argv if argv is not None else sys.argv[1:])
    num_qubits = 10 if fast else NUM_QUBITS
    batch = 32 if fast else BATCH
    shots = 512 if fast else SHOTS
    vqe_qubits = 6 if fast else VQE_QUBITS
    print(
        f"primitives: RY(n={num_qubits}, reps={REPS}) sweep, B={batch}, "
        f"seed={SEED}{' [fast]' if fast else ''}"
    )

    shots_sweep = bench_shots_sweep(num_qubits, batch, shots)
    exact_sweep = bench_exact_sweep(num_qubits, batch)
    vqe_iteration = bench_vqe_iteration(vqe_qubits, VQE_SHOTS)

    headline = shots_sweep["speedup_broadcast_vs_loop"]
    payload = {
        "suite": "primitives",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "fast_mode": fast,
        "shots_sweep": shots_sweep,
        "exact_sweep": exact_sweep,
        "vqe_iteration": vqe_iteration,
        "acceptance": {
            "broadcast_speedup": headline,
            "broadcast_speedup_target": BROADCAST_SPEEDUP_TARGET,
            "target_applies": not fast,
        },
    }
    # A --fast smoke run never overwrites the checked-in full-run numbers.
    output = OUTPUT_PATH.with_suffix(".fast.json") if fast else OUTPUT_PATH
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {output}")
    if fast:
        status = "informational (fast mode)"
    elif headline >= BROADCAST_SPEEDUP_TARGET:
        status = "ok"
    else:
        status = f"BELOW TARGET (>={BROADCAST_SPEEDUP_TARGET:.0f}x)"
    print(f"  broadcast vs loop: {headline:.1f}x  [{status}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
