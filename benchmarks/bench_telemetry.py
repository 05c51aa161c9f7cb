"""Benchmark the telemetry layer's overhead on the QFT sampling workload.

Run as a script to emit ``BENCH_telemetry.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--fast]

(``--fast`` writes ``BENCH_telemetry.fast.json`` instead, so a smoke run
leaves the checked-in numbers alone.)

The question this answers: what does the instrumentation cost when nobody
is looking?  The pipeline calls into the tracer unconditionally — every
stage, every experiment attempt, every transpiler pass — so the no-op
path must be effectively free for telemetry to stay on by default.

Three measurements, all on the seeded QFT sampling batch (20 qubits at
full size, the paper's canonical Shor/QPE workload):

* **Disabled vs enabled wall time** — the same batch run with the
  default :class:`~repro.telemetry.tracer.NoOpTracer` and with a
  :class:`~repro.telemetry.tracer.RecordingTracer`, trials interleaved
  so drift hits both sides equally.  Reported as throughput and the
  enabled-tracing overhead percentage (informational: recording is
  opt-in, so its cost only matters to users who asked for it).
* **No-op call cost** — a microbenchmark of the disabled
  ``tracer.span()`` enter/exit, the exact operation every instrumented
  stage performs when tracing is off.
* **Disabled-path overhead** — the spans a traced run records count the
  instrumented call sites the disabled run hit, so
  ``spans_per_job * noop_call_seconds / disabled_wall`` bounds the
  disabled path's share of end-to-end wall time.  **Asserted under
  3%** — this is the zero-overhead-when-disabled contract of the
  telemetry subsystem, and it fails the benchmark (and CI) if broken.

Bit-identity between the traced and untraced runs is asserted as a side
effect: enabling tracing must never perturb seeded results.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from benchmarks.bench_kernels import qft_circuit  # noqa: E402
from repro.providers.aer import QasmSimulatorBackend  # noqa: E402
from repro.telemetry import (  # noqa: E402
    MetricsRegistry,
    disable_tracing,
    enable_tracing,
    get_tracer,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_telemetry.json"

NUM_QUBITS = 20
NUM_CIRCUITS = 3
SHOTS = 1024
SEED = 2019
TRIALS = 3
NOOP_CALLS = 200_000
DISABLED_OVERHEAD_LIMIT_PCT = 3.0


def build_batch(num_circuits: int, num_qubits: int) -> list:
    """The benchmark batch: named QFT sampling circuits."""
    batch = []
    for index in range(num_circuits):
        circuit = qft_circuit(num_qubits)
        circuit.name = f"qft-{index}"
        batch.append(circuit)
    return batch


def run_once(batch, shots: int):
    """One timed serial submission; returns (wall_seconds, counts, spans).

    ``spans`` is the number of spans the active tracer recorded for the
    job (0 when tracing is disabled) — the traced run's span count is
    exactly the number of instrumented call sites the untraced run hit.
    """
    backend = QasmSimulatorBackend()
    tracer = get_tracer()
    before = (
        len(tracer.store.all_spans()) if tracer.store is not None else 0
    )
    start = time.perf_counter()
    job = backend.run(batch, shots=shots, seed=SEED, executor="serial")
    result = job.result()
    wall = time.perf_counter() - start
    if not result.success:
        raise RuntimeError(f"benchmark batch failed: {result.results}")
    counts = [result.get_counts(circuit.name) for circuit in batch]
    after = (
        len(tracer.store.all_spans()) if tracer.store is not None else 0
    )
    return wall, counts, after - before


def measure_noop_call(calls: int) -> float:
    """Seconds per disabled ``tracer.span()`` enter/exit."""
    disable_tracing()
    tracer = get_tracer()
    start = time.perf_counter()
    for _ in range(calls):
        with tracer.span("bench"):
            pass
    return (time.perf_counter() - start) / calls


def main(argv=None) -> int:
    """Run the telemetry benchmark and write the JSON artifact."""
    fast = "--fast" in (argv if argv is not None else sys.argv[1:])
    num_qubits = 12 if fast else NUM_QUBITS
    shots = 256 if fast else SHOTS
    trials = 2 if fast else TRIALS
    batch = build_batch(NUM_CIRCUITS, num_qubits)

    disabled_walls, enabled_walls = [], []
    disabled_counts = enabled_counts = None
    spans_per_job = 0
    for _ in range(trials):
        disable_tracing()
        wall, disabled_counts, _ = run_once(batch, shots)
        disabled_walls.append(wall)
        enable_tracing(registry=MetricsRegistry())
        try:
            wall, enabled_counts, spans_per_job = run_once(batch, shots)
            enabled_walls.append(wall)
        finally:
            disable_tracing()
    assert enabled_counts == disabled_counts, (
        "tracing perturbed seeded results"
    )
    assert spans_per_job > 0, "traced run recorded no spans"

    disabled_best = min(disabled_walls)
    enabled_best = min(enabled_walls)
    enabled_overhead_pct = 100.0 * (enabled_best / disabled_best - 1.0)

    noop_call_s = measure_noop_call(NOOP_CALLS // (10 if fast else 1))
    disabled_overhead_pct = (
        100.0 * spans_per_job * noop_call_s / disabled_best
    )

    report = {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workload": {
            "num_qubits": num_qubits,
            "num_circuits": NUM_CIRCUITS,
            "shots": shots,
            "seed": SEED,
            "trials": trials,
            "fast": fast,
        },
        "tracing_disabled": {
            "wall_s_best": disabled_best,
            "experiments_per_s_disabled": NUM_CIRCUITS / disabled_best,
        },
        "tracing_enabled": {
            "wall_s_best": enabled_best,
            "experiments_per_s_enabled": NUM_CIRCUITS / enabled_best,
            "spans_per_job": spans_per_job,
            "enabled_overhead_pct": enabled_overhead_pct,
        },
        "noop_path": {
            "noop_call_ns": noop_call_s * 1e9,
            "disabled_overhead_pct": disabled_overhead_pct,
            "disabled_overhead_limit_pct": DISABLED_OVERHEAD_LIMIT_PCT,
        },
        "bit_identity": "asserted",
    }
    # A --fast smoke run never overwrites the checked-in full-run numbers.
    output = OUTPUT_PATH.with_suffix(".fast.json") if fast else OUTPUT_PATH
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    assert disabled_overhead_pct < DISABLED_OVERHEAD_LIMIT_PCT, (
        f"disabled-tracing overhead {disabled_overhead_pct:.3f}% exceeds "
        f"the {DISABLED_OVERHEAD_LIMIT_PCT}% contract"
    )
    print(
        f"disabled-path overhead {disabled_overhead_pct:.4f}% "
        f"(< {DISABLED_OVERHEAD_LIMIT_PCT}% contract), "
        f"enabled-tracing overhead {enabled_overhead_pct:+.2f}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
