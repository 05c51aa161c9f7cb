"""A tour of the telemetry layer: tracing a chaos-injected job.

Enables tracing, submits a seeded three-circuit batch with a fault
injector that kills the first attempt of every experiment, and then
inspects the recorded trace: the span tree (retries show up as
error-status children), the ASCII timeline, the unified metrics
registry's Prometheus dump, and a JSON-lines export.

Run:  PYTHONPATH=src python examples/tracing_tour.py
"""

from repro.circuit import QuantumCircuit
from repro.providers import Aer, FaultInjector, FaultSpec, RetryPolicy
from repro.providers.execute import execute
from repro.telemetry import (
    disable_tracing,
    enable_tracing,
    export_jsonl,
    prometheus_text,
)


def ghz(n, name):
    circuit = QuantumCircuit(n, n, name=name)
    circuit.h(0)
    for i in range(n - 1):
        circuit.cx(i, i + 1)
    for i in range(n):
        circuit.measure(i, i)
    return circuit


# 1. Turn tracing on.  The default is off — the pipeline then runs
#    through a no-op tracer that allocates nothing.
enable_tracing()

# 2. Submit a batch with seeded chaos: a transient fault fires on the
#    first attempt of every experiment, so each one retries once.
batch = [ghz(8, f"ghz-{i}") for i in range(3)]
injector = FaultInjector([FaultSpec("transient", attempts=(0,))], seed=7)
job = execute(
    batch,
    Aer.get_backend("qasm_simulator"),
    shots=256,
    seed=7,
    executor="processes",
    fault_injector=injector,
    retry_policy=RetryPolicy(base_delay=0.01),
)
result = job.result()
print(f"job {job.job_id} succeeded: {result.success}")
print(f"fault ledger: retries={job.fault_stats['retries']}, "
      f"faults_injected={job.fault_stats['faults_injected']}\n")

# 3. The trace is one connected tree, even though the experiments ran in
#    process-pool workers: each worker records its spans locally and
#    ships them back on the result, parented to the job's dispatch span.
trace = job.trace()
print("span tree (ERROR status marks the faulted first attempts):")
for depth, span in trace.walk():
    status = "" if span.status == "OK" else f"  <-- {span.status}"
    print(f"  {'  ' * depth}{span.name} seq={span.seq}"
          f" [{span.duration * 1e3:.2f}ms]{status}")

# 4. The same trace as an ASCII timeline (render_svg() gives SVG).
print("\n" + trace.render(width=72))

# 5. The metrics registry holds fleet-wide totals: each finished job adds
#    its fault/retry ledger (job.fault_stats, computed from the job's own
#    outcomes) to one unlabelled series per counter, so the registry does
#    not grow with the number of jobs.
print("Prometheus dump (fleet-wide job counters only):")
for line in prometheus_text().splitlines():
    if line.startswith("repro_job_") and not line.startswith("# "):
        print(f"  {line}")

# 6. JSON-lines export: one span per line, deterministically ordered, so
#    two runs of the same seeded job differ only in the timing fields.
lines = export_jsonl(trace).strip().splitlines()
print(f"\nJSON-lines export: {len(lines)} spans; first line:")
print(f"  {lines[0][:76]}...")

disable_tracing()
