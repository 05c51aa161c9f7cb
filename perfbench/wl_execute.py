"""``execute``: rounds of default-option ``execute(...).result()`` calls.

One op is one round: a wide batch on ``qasm_simulator`` (four circuits of
12-16 qubits, 8192 shots: the ``auto`` executor's process pool) and then
a batch of the paper's 4-5-qubit circuits on the simulated ``ibmqx4``
(1024 shots: device noise, per-shot trajectories, per-seed recompiles).
The circuits are drawn once per run and re-run every round with fresh
seeds, so every round has the same composition and the op latency is not
bimodal.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

import numpy as np

import checks
import circuits
from harness import Bench
from repro.providers import Aer, IBMQ, execute
from repro.transpiler.preset import transpile

WIDE_SHOTS = 8192
DEVICE_SHOTS = 1024
#: Rounds per second of ``--seconds`` (about one round per 0.6 s on a
#: 2-core host); the op count is fixed by seed and seconds, not by a timer.
ROUNDS_PER_SECOND = 1.6
#: A device experiment below this Hellinger fidelity to the ideal
#: distribution is a wrong result, not noise.
DEVICE_FIDELITY_FLOOR = 0.5


def make_ops(seed: int, seconds: float) -> list:
    rng = np.random.default_rng(seed)
    wide = [
        circuits.ghz(16),
        circuits.qft(14, int(rng.integers(2**14))),
        circuits.draw("bv", 13, rng),
        circuits.draw("random", 12, rng),
    ]
    # BV "1011" is the paper-size input whose routing reuses a measured
    # qubit; the QFT input changes the distribution, not the routing.
    device = [
        circuits.paper_fig1(),
        circuits.ghz(5),
        circuits.bv("1011"),
        circuits.qft(4, int(rng.integers(16))),
    ]
    return [
        {"wide": wide, "device": device,
         "wide_seed": int(rng.integers(2**31)),
         "device_seed": int(rng.integers(2**31))}
        for _ in range(math.ceil(seconds * ROUNDS_PER_SECOND))
    ]


class ExecuteBench(Bench):
    def __init__(self, workdir):
        super().__init__(workdir)
        self.simulator = Aer.get_backend("qasm_simulator")
        self.device = IBMQ.get_backend("ibmqx4")

    def warm_up(self) -> None:
        batch = [circuits.ghz(12)] * 4
        execute(batch, self.simulator, shots=WIDE_SHOTS, seed=0).result()
        execute(circuits.ghz(5), self.device, shots=DEVICE_SHOTS,
                seed=0).result()

    def run_op(self, op, layers):
        wide, device = op["wide"], op["device"]
        with layers.timed("providers.submit_s"):
            wide_job = execute(wide, self.simulator, shots=WIDE_SHOTS,
                               seed=op["wide_seed"])
        with layers.timed("providers.result_s"):
            wide_result = wide_job.result()
        with layers.timed("providers.submit_s"):
            device_job = execute(device, self.device, shots=DEVICE_SHOTS,
                                 seed=op["device_seed"])
        with layers.timed("providers.result_s"):
            device_result = device_job.result()
        output = {
            "wide": [wide_result.get_counts(c) for c in wide],
            "device": [device_result.get_counts(c) for c in device],
            "seconds": {e.circuit_name: e.time_taken
                        for e in wide_result.results + device_result.results},
        }
        if layers.enabled:
            output["jobs"] = []
            for job, simulator in ((wide_job, "ideal"),
                                   (device_job, "device")):
                trace = job.trace()
                layers.absorb_job(trace, job.fault_stats, simulator)
                output["jobs"].append({
                    "executor": trace.find_one("dispatch")
                    .attributes.get("executor"),
                    "pids": sorted({
                        span.attributes.get("pid")
                        for span in trace.find("experiment")
                        + trace.find("chunk")
                    }),
                })
        return output

    def verify(self, ops, outcomes):
        wide, device = ops[0]["wide"], ops[0]["device"]
        wide_ideal = [checks.ideal_distribution(c) for c in wide]
        device_ideal = [checks.ideal_distribution(c) for c in device]
        properties = self.device.properties()
        ok, fidelities, expected = [], [], []
        for op, outcome in zip(ops, outcomes):
            if outcome.error is not None:
                ok.append(False)
                fidelities.extend([0.0] * len(device))
                expected.extend([0.0] * len(device))
                continue
            result = outcome.output
            round_ok = all(
                checks.marginals_within(counts, probabilities,
                                        circuit.num_clbits, WIDE_SHOTS)
                for circuit, counts, probabilities
                in zip(wide, result["wide"], wide_ideal)
            )
            for circuit, counts, probabilities in zip(
                device, result["device"], device_ideal
            ):
                fidelity = checks.hellinger_fidelity(
                    counts, probabilities, circuit.num_clbits)
                fidelities.append(fidelity)
                round_ok &= fidelity >= DEVICE_FIDELITY_FLOOR
                # The circuit execute() ran: same target, level and seed.
                compiled = transpile(circuit, backend=self.device,
                                     seed=op["device_seed"])
                expected.append(
                    checks.calibrated_success(compiled, properties))
            ok.append(round_ok)
        seconds = defaultdict(list)
        for outcome in outcomes:
            if outcome.error is None:
                for name, value in outcome.output["seconds"].items():
                    seconds[name].append(value)
        quality = {
            "expected_fidelity": statistics.fmean(expected),
            "device_fidelity": statistics.fmean(fidelities),
            "energy_ratio": 1.0,
        }
        record = {
            "rounds": len(ops),
            "experiment_median_s": {
                name: statistics.median(values)
                for name, values in seconds.items()
            },
            "jobs": [outcome.output["jobs"] for outcome in outcomes
                     if outcome.error is None and "jobs" in outcome.output],
        }
        return ok, quality, record

    def overhead_sample(self, ops, outcomes) -> list:
        return super().overhead_sample(ops, outcomes)[:4]


BENCH = ExecuteBench
