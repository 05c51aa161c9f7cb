"""``compile``: QASM text -> ``QuantumCircuit.from_qasm_str`` -> ``transpile``.

Every input is unique, so the transpile cache never hits and the
transpiler does nearly all the work (paper Sec. II-B, V-B and Fig. 4).
One run compiles the whole seeded list once, in a seeded order.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import checks
import circuits
from harness import Bench
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import TranspilerError
from repro.providers.fake import IBMQ
from repro.transpiler.preset import transpile

#: ibmqx5 at the default level 1.  Seeded random circuits stay out of this
#: range: SabreSwap stalls on them at a seed-dependent rate, 13-49 s per
#: stall, which would make the run length depend on the seed.
QX5_FAMILIES = ("ghz", "bv", "dj", "qft")
QX5_WIDTHS = range(4, 17)
#: ibmqx4, naive (level 0) vs improved (level 3) mapping as in Fig. 4.
QX4_LEVELS = (0, 3)
QX4_WIDTHS = (3, 4, 5)
#: Router tie-breaking seed, pinned like a user's ``seed_transpiler``:
#: outputs then repeat exactly, and the workload seed varies only the
#: circuits.  How long a stall runs before giving up depends on it.
TRANSPILE_SEED = 0


def make_ops(seed: int, seconds: float) -> list:
    """The whole input list; ``seconds`` does not shorten it (see NOTES)."""
    rng = np.random.default_rng(seed)
    plan = [("ibmqx5", 1, family, width)
            for family in QX5_FAMILIES for width in QX5_WIDTHS]
    plan += [("ibmqx4", level, family, width)
             for level in QX4_LEVELS
             for family in circuits.FAMILIES for width in QX4_WIDTHS]
    ops, seen = [], set()
    for device, level, family, width in plan:
        # A balanced DJ oracle with mask m is the BV circuit for secret m;
        # redraw so that no input repeats and the cache never hits.
        circuit = circuits.draw(family, width, rng)
        while (device, level, circuit.qasm()) in seen:
            circuit = circuits.draw(family, width, rng)
        seen.add((device, level, circuit.qasm()))
        ops.append({
            "name": f"{device}/L{level}/{circuit.name}",
            "device": device,
            "level": level,
            "qasm": circuit.qasm(),
            "check_seed": int(rng.integers(2**31)),
        })
    return [ops[i] for i in rng.permutation(len(ops))]


class CompileBench(Bench):
    def __init__(self, workdir):
        super().__init__(workdir)
        self.devices = {name: IBMQ.get_backend(name)
                        for name in ("ibmqx4", "ibmqx5")}

    def warm_up(self) -> None:
        # One compile per device and level of the list, on a width the list
        # never uses, so lazy set-up is done and no cache entry is shared.
        text = circuits.ghz(2).qasm()
        for device, level in (("ibmqx5", 1), ("ibmqx4", 0), ("ibmqx4", 3)):
            transpile(QuantumCircuit.from_qasm_str(text),
                      backend=self.devices[device], optimization_level=level,
                      seed=TRANSPILE_SEED)

    def run_op(self, op, layers):
        with layers.timed("qasm.parse_s"):
            circuit = QuantumCircuit.from_qasm_str(op["qasm"])
        start = time.perf_counter()
        try:
            compiled = transpile(circuit, backend=self.devices[op["device"]],
                                 optimization_level=op["level"],
                                 seed=TRANSPILE_SEED)
        except TranspilerError:
            layers.add("transpiler.failed")
            layers.add("transpiler.failed_s", time.perf_counter() - start)
            raise
        if layers.enabled:
            layers.add("transpiler.transpile_s", time.perf_counter() - start)
            for name, seconds in compiled.pass_times:
                layers.add(f"transpiler.pass_s.{name}", seconds)
        return compiled

    def verify(self, ops, outcomes):
        ok, fidelity = [], []
        unchecked_clbits = 0
        for op, outcome in zip(ops, outcomes):
            if outcome.error is not None:
                ok.append(False)
                fidelity.append(0.0)
                continue
            device = self.devices[op["device"]]
            config = device.configuration()
            compiled = outcome.output
            original = QuantumCircuit.from_qasm_str(op["qasm"])
            rng = np.random.default_rng(op["check_seed"])
            ok.append(
                checks.on_device(compiled, config.coupling_map,
                                 config.basis_gates)
                and checks.compiled_matches(original, compiled, rng)
            )
            unchecked_clbits += checks.terminal_measures(compiled) is None
            fidelity.append(
                checks.calibrated_success(compiled, device.properties())
            )
        quality = {"expected_fidelity": statistics.fmean(fidelity),
                   "device_fidelity": 1.0, "energy_ratio": 1.0}
        record = {
            "inputs": len(ops),
            "reused_measured_qubit": unchecked_clbits,
            "stalls": [
                {"input": op["name"], "seconds": round(outcome.seconds, 3),
                 "error": outcome.error}
                for op, outcome in zip(ops, outcomes)
                if outcome.error is not None
            ],
        }
        return ok, quality, record

    def measured(self, layers, ops, outcomes) -> None:
        """CX added by mapping and output depth (traced run only)."""
        if not layers.enabled:
            return
        depths = []
        for op, outcome in zip(ops, outcomes):
            if outcome.error is not None:
                continue
            compiled = outcome.output
            depths.append(compiled.depth())
            # Input CX count: the same circuit unrolled to the device basis
            # with no coupling map, so nothing is routed.
            device = self.devices[op["device"]]
            unrolled = transpile(
                QuantumCircuit.from_qasm_str(op["qasm"]),
                basis_gates=device.configuration().basis_gates,
                optimization_level=0, transpile_cache=False)
            layers.add("transpiler.cx_added",
                       compiled.count_ops().get("cx", 0)
                       - unrolled.count_ops().get("cx", 0))
        if depths:
            layers.add("transpiler.depth_out", statistics.fmean(depths))

    def overhead_sample(self, ops, outcomes) -> list:
        return [i for i, outcome in enumerate(outcomes)
                if outcome.error is None and outcome.seconds < 0.5][:16]


BENCH = CompileBench
