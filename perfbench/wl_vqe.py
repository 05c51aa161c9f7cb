"""``vqe``: one ``VQE(...).run()`` per op (paper Sec. III, Aqua).

An 8-qubit transverse-field Ising chain with a seeded field strength per
op, an RY ansatz, shots-mode estimation and a fixed number of SPSA
iterations.  The V2 Estimator and the batched broadcast simulator do the
work; nothing is compiled and no runtime service is involved.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

import checks
from harness import Bench
from repro.algorithms.ansatz import ry_ansatz
from repro.algorithms.chemistry import transverse_ising
from repro.algorithms.optimizers import SPSA
from repro.algorithms.vqe import VQE
from repro.primitives import EstimatorV2

NUM_QUBITS = 8
REPS = 2
SHOTS = 1024
SPSA_ITERATIONS = 10
FIELD_RANGE = (0.5, 1.5)
#: Solves per second of ``--seconds`` (about 0.18 s per solve on a 2-core
#: host); the op count is fixed by seed and seconds, not by a timer.
SOLVES_PER_SECOND = 5.5


def make_ops(seed: int, seconds: float) -> list:
    rng = np.random.default_rng(seed)
    return [
        {"field": float(rng.uniform(*FIELD_RANGE)),
         "seed": int(rng.integers(2**31))}
        for _ in range(math.ceil(seconds * SOLVES_PER_SECOND))
    ]


def solve(ansatz, field: float, seed: int, estimator_seconds=None):
    hamiltonian = transverse_ising(NUM_QUBITS, 1.0, field)
    vqe = VQE(hamiltonian, ansatz, SPSA(maxiter=SPSA_ITERATIONS, seed=seed),
              mode="shots", shots=SHOTS, seed=seed)
    if estimator_seconds is not None:
        batched = vqe.energy_many

        def timed(points):
            start = time.perf_counter()
            try:
                return batched(points)
            finally:
                estimator_seconds.append(time.perf_counter() - start)

        vqe.energy_many = timed
    # Every solve starts from |0...0>, so the reported energy varies with
    # the seeded field and SPSA perturbations, not a random start.
    return hamiltonian, vqe.run(np.zeros(ansatz.num_parameters))


class VqeBench(Bench):
    segment = 2

    def __init__(self, workdir):
        super().__init__(workdir)
        self.ansatz = ry_ansatz(NUM_QUBITS, reps=REPS)
        self._jobs = None

    def warm_up(self) -> None:
        solve(self.ansatz, 1.0, 0)

    @contextmanager
    def instrument(self, layers):
        """Capture the Estimator jobs VQE submits, for their traces."""
        if not layers.enabled:
            yield
            return
        submit = EstimatorV2.run
        jobs = self._jobs = []

        def run(estimator, *args, **kwargs):
            job = submit(estimator, *args, **kwargs)
            jobs.append(job)
            return job

        EstimatorV2.run = run
        try:
            yield
        finally:
            EstimatorV2.run = submit
            self._jobs = None

    def run_op(self, op, layers):
        if not layers.enabled:
            hamiltonian, result = solve(self.ansatz, op["field"], op["seed"])
            return hamiltonian, result.eigenvalue, result.optimal_point
        estimator_seconds = []
        start = time.perf_counter()
        hamiltonian, result = solve(self.ansatz, op["field"], op["seed"],
                                    estimator_seconds)
        solve_seconds = time.perf_counter() - start
        layers.add("primitives.estimator_s", sum(estimator_seconds))
        layers.add("primitives.calls", len(estimator_seconds))
        layers.add("algorithms.optimizer_self_s",
                   solve_seconds - sum(estimator_seconds))
        while self._jobs:
            job = self._jobs.pop()
            path = job.result()[0].metadata.get("path")
            layers.add("primitives.broadcast_jobs", path == "broadcast")
            layers.absorb_job(job.trace(), job.fault_stats, "ideal")
        return hamiltonian, result.eigenvalue, result.optimal_point

    def measured(self, layers, ops, outcomes) -> None:
        calls = layers.values.get("primitives.calls")
        if calls:
            layers.add("primitives.broadcast_share",
                       layers.values["primitives.broadcast_jobs"] / calls)

    def verify(self, ops, outcomes):
        ok, ratios, errors = [], [], []
        for outcome in outcomes:
            if outcome.error is not None:
                ok.append(False)
                continue
            hamiltonian, reported, point = outcome.output
            state = checks.final_state(self.ansatz.bind(point), {})
            energy, sigma = checks.pauli_energy(state, hamiltonian, SHOTS)
            ok.append(abs(reported - energy) <= 5 * sigma + 1e-9)
            ground = hamiltonian.ground_state_energy()
            ratios.append(reported / ground)
            errors.append(reported - ground)
        quality = {"expected_fidelity": 1.0, "device_fidelity": 1.0,
                   "energy_ratio": statistics.fmean(ratios or [0.0])}
        record = {"solves": len(ops),
                  "energy_error": statistics.fmean(errors) if errors else None}
        return ok, quality, record

    def overhead_sample(self, ops, outcomes) -> list:
        return super().overhead_sample(ops, outcomes)[:6]


BENCH = VqeBench
