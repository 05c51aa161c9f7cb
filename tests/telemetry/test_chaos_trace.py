"""Chaos tracing: spans survive seeded fault injection with correct
error status, and every export surface agrees with the legacy ledger.

The CI chaos job sweeps ``CHAOS_SEED`` over fixed values; the assertions
here hold for any seed because the injected transient fault fires
deterministically on attempt 0 of every experiment.
"""

from __future__ import annotations

import json
import os

from repro.circuit import QuantumCircuit
from repro.providers import Aer, FaultInjector, FaultSpec, RetryPolicy
from repro.providers.execute import execute
from repro.telemetry import (
    JobTrace,
    MetricsRegistry,
    disable_tracing,
    enable_tracing,
    export_jsonl,
    get_metrics_registry,
    load_jsonl,
    prometheus_text,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

FAST_RETRY = RetryPolicy(base_delay=0.0)


def _batch(size=3, num_qubits=4):
    circuits = []
    for index in range(size):
        circuit = QuantumCircuit(num_qubits, num_qubits,
                                 name=f"exp-{index}")
        circuit.h(0)
        for qubit in range(num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
        for qubit in range(num_qubits):
            circuit.measure(qubit, qubit)
        circuits.append(circuit)
    return circuits


def _run_chaos_job(executor="processes"):
    injector = FaultInjector(
        [FaultSpec("transient", attempts=(0,))], seed=CHAOS_SEED
    )
    backend = Aer.get_backend("qasm_simulator")
    job = execute(_batch(), backend, shots=64, seed=CHAOS_SEED,
                  executor=executor, fault_injector=injector,
                  retry_policy=FAST_RETRY)
    result = job.result()
    assert result.success
    return job


def _prometheus_value(text, name):
    """The value of the unlabelled series ``name`` in a Prometheus dump
    (0 when the family has not been published yet)."""
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


def _snapshot_value(snapshot, name):
    """The value of the unlabelled series ``name`` in a registry
    snapshot (0 when the family has not been published yet)."""
    series = snapshot.get(name, {"series": []})["series"]
    assert all(entry["labels"] == {} for entry in series)
    return sum(entry["value"] for entry in series)


class TestChaosTrace:
    def test_processes_job_yields_one_connected_trace(self):
        enable_tracing(registry=MetricsRegistry())
        try:
            job = _run_chaos_job("processes")
            trace = job.trace()
        finally:
            disable_tracing()
        # Single connected tree: exactly one root, everything shares the
        # trace id, worker-recorded experiment spans hang off dispatch.
        assert [root.name for root in trace.roots()] == ["job"]
        assert {span.trace_id for span in trace} == {trace.trace_id}
        dispatch = trace.find_one("dispatch")
        experiments = trace.find("experiment")
        assert len(experiments) == 3
        assert all(
            span.parent_id == dispatch.span_id for span in experiments
        )
        assert sorted(span.seq for span in experiments) == [0, 1, 2]

    def test_retries_are_error_status_child_spans(self):
        enable_tracing(registry=MetricsRegistry())
        try:
            job = _run_chaos_job("processes")
            trace = job.trace()
        finally:
            disable_tracing()
        for experiment in trace.find("experiment"):
            children = trace.children(experiment)
            names = [span.name for span in children]
            assert names == ["run", "retry"]
            failed, retried = children
            assert failed.status == "ERROR"
            assert "TransientFaultError" in failed.error
            assert retried.status == "OK"
            assert retried.seq == 1
            assert experiment.status == "OK"
        assert len(trace.errors()) == 3

    def test_shape_matches_serial_execution_of_same_chaos(self):
        enable_tracing(registry=MetricsRegistry())
        try:
            processes = _run_chaos_job("processes").trace().shape()
            serial = _run_chaos_job("serial").trace().shape()
        finally:
            disable_tracing()
        assert processes == serial

    def test_exports_agree_with_legacy_fault_stats(self, tmp_path):
        names = ("repro_job_attempts_total", "repro_job_retries_total",
                 "repro_job_faults_injected_total")
        text_before = prometheus_text()
        snapshot_before = get_metrics_registry().snapshot()
        enable_tracing(registry=get_metrics_registry())
        try:
            job = _run_chaos_job("processes")
            trace = job.trace()
        finally:
            disable_tracing()
        stats = job.fault_stats
        assert stats["experiments"] == 3
        assert stats["attempts"] == 6
        assert stats["retries"] == 3
        assert stats["faults_injected"] == 3
        # The trace tells the same story as the ledger.
        assert len(trace.find("run")) + len(trace.find("retry")) == \
            stats["attempts"]
        assert len(trace.find("retry")) == stats["retries"]
        # JSON-lines round trip preserves every span.
        path = tmp_path / "chaos.jsonl"
        export_jsonl(trace, path=path)
        loaded = load_jsonl(path)
        assert {entry["span_id"] for entry in loaded} == {
            span.span_id for span in trace
        }
        statuses = [
            entry["status"] for entry in loaded if entry["name"] == "run"
        ]
        assert statuses == ["ERROR"] * 3
        # The fleet-wide counters in the Prometheus dump grew by the
        # job's totals.
        text = prometheus_text()
        grown = [
            _prometheus_value(text, name)
            - _prometheus_value(text_before, name)
            for name in names
        ]
        assert grown == [6, 3, 3]
        # And the JSON snapshot parses with the same numbers.
        snapshot = json.loads(json.dumps(
            get_metrics_registry().snapshot()
        ))
        grown = [
            _snapshot_value(snapshot, name)
            - _snapshot_value(snapshot_before, name)
            for name in names
        ]
        assert grown == [6, 3, 3]

    def test_fallback_recorded_as_error_span(self):
        tracer = enable_tracing(registry=MetricsRegistry())
        try:
            job_trace = JobTrace("job-fb", "fake")
            job_trace.dispatch_started("processes", 2)
            job_trace.record_fallback("processes->threads")
            trace = job_trace.trace()
        finally:
            disable_tracing()
        fallback = trace.find_one("fallback")
        assert fallback.status == "ERROR"
        assert fallback.attributes["transition"] == "processes->threads"
        assert fallback.parent_id == trace.find_one("dispatch").span_id
        assert tracer.store is not None
