"""Chaos suite for the per-binding loop path of the primitives.

Runs under the CHAOS_SEED sweep in CI.  A pub whose template the
broadcast engine cannot take still runs inside its own ``run_pubs``
experiment, so a seeded transient fault on that experiment retries it
to the fault-free result, on every executor, and the job keeps its
fault ledger and its trace like any other.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.circuit import Parameter, QuantumCircuit
from repro.primitives import EstimatorV2, SamplerV2
from repro.providers import FaultInjector, FaultSpec, RetryPolicy
from repro.quantum_info.pauli import PauliSumOp
from repro.telemetry import MetricsRegistry, disable_tracing, enable_tracing

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

FAST_RETRY = RetryPolicy(base_delay=0.0)


def _values(rows):
    rng = np.random.default_rng(CHAOS_SEED)
    return rng.uniform(-np.pi, np.pi, size=(rows, 1))


def _conditional_sampler_pub():
    """A conditional gate after the measurements: not samplable."""
    a = Parameter("a")
    template = QuantumCircuit(2, 2)
    template.h(0)
    template.ry(a, 1)
    template.measure(0, 0)
    template.measure(1, 1)
    template.x(0)
    template.data[-1].operation.condition = (template.cregs[0], 1)
    return SamplerV2(seed=CHAOS_SEED), (template, _values(4), [a]), "counts"


def _idle_qubit_estimator_pub():
    """Qubit 2 is idle: the term circuits would be sampled narrower."""
    a = Parameter("a")
    template = QuantumCircuit(3)
    template.h(0)
    template.ry(a, 1)
    hamiltonian = PauliSumOp.from_dict({"ZZI": 0.5, "IIZ": 0.3, "IXI": 0.2})
    estimator = EstimatorV2(mode="shots", seed=CHAOS_SEED)
    return estimator, (template, hamiltonian, _values(4), [a]), "evs"


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize("build", [
    _conditional_sampler_pub, _idle_qubit_estimator_pub,
], ids=["sampler", "estimator"])
def test_loop_pub_retries_to_fault_free_result(build, executor):
    primitive, pub, field = build()
    clean = primitive.run([pub], shots=64).result()[0]
    assert clean.metadata["path"] == "loop"
    injector = FaultInjector([FaultSpec("transient")], seed=CHAOS_SEED)
    enable_tracing(registry=MetricsRegistry())
    try:
        job = primitive.run([pub], shots=64, executor=executor,
                            fault_injector=injector, retry_policy=FAST_RETRY)
        faulted = job.result()[0]
        trace = job.trace()
    finally:
        disable_tracing()
    assert faulted.metadata["path"] == "loop"
    assert list(getattr(faulted.data, field)) == list(
        getattr(clean.data, field)
    )
    # The whole pub is one experiment: it faulted once and retried once.
    stats = job.fault_stats
    assert stats["faults_injected"] >= 1
    assert (stats["attempts"], stats["retries"]) == (2, 1)
    (experiment,) = trace.find("experiment")
    assert [span.name for span in trace.children(experiment)] == [
        "run", "retry",
    ]
