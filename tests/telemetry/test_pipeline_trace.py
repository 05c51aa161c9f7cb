"""Pipeline tracing: span-tree shape across executors, zero-cost no-op,
and the per-pass timing satellite."""

from __future__ import annotations

import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import BackendError
from repro.providers import Aer
from repro.providers.execute import execute
from repro.telemetry import (
    MetricsRegistry,
    Span,
    disable_tracing,
    enable_tracing,
    get_metrics_registry,
    reset_metrics,
)
from repro.transpiler import clear_transpile_cache, transpile


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


def _fleet_total(name):
    """The fleet-wide counter ``name`` (0 before any job published it)."""
    family = get_metrics_registry().get(name)
    return 0 if family is None else family.value()


def _traced_shape(executor):
    enable_tracing(registry=MetricsRegistry())
    try:
        backend = Aer.get_backend("qasm_simulator")
        job = execute(_batch(), backend, shots=64, seed=17,
                      executor=executor)
        result = job.result()
        assert result.success
        return job.trace().shape(), result.get_counts("exp-0")
    finally:
        disable_tracing()


class TestShapeAcrossExecutors:
    def test_span_tree_identical_serial_threads_processes(self):
        serial_shape, serial_counts = _traced_shape("serial")
        threads_shape, threads_counts = _traced_shape("threads")
        processes_shape, processes_counts = _traced_shape("processes")
        # One connected tree: job -> {assemble, dispatch, collect},
        # dispatch -> one experiment per batch entry, each with one run.
        assert serial_shape == [
            (0, "job", 0),
            (1, "assemble", 0),
            (1, "dispatch", 0),
            (2, "experiment", 0),
            (3, "run", 0),
            (2, "experiment", 1),
            (3, "run", 0),
            (2, "experiment", 2),
            (3, "run", 0),
            (1, "collect", 0),
        ]
        assert threads_shape == serial_shape
        assert processes_shape == serial_shape
        # Seeded results stay bit-identical while traced.
        assert threads_counts == serial_counts
        assert processes_counts == serial_counts

    def test_worker_spans_carry_deterministic_ids(self):
        enable_tracing(registry=MetricsRegistry())
        try:
            backend = Aer.get_backend("qasm_simulator")
            job = execute(_batch(), backend, shots=64, seed=17,
                          executor="processes")
            job.result()
            first = {s.span_id for s in job.trace()}
            job2 = execute(_batch(), backend, shots=64, seed=17,
                           executor="serial")
            job2.result()
            second = {s.span_id for s in job2.trace()}
        finally:
            disable_tracing()
        # Different jobs root different traces...
        assert first.isdisjoint(second)
        # ...but within a job the ids derive from the job id alone, so
        # the id sets have equal size (same tree, renamed root).
        assert len(first) == len(second)


class TestDisabledPath:
    def test_noop_pipeline_allocates_no_spans(self):
        backend = Aer.get_backend("qasm_simulator")
        before = Span.allocations
        job = execute(_batch(size=2), backend, shots=32, seed=5)
        assert job.result().success
        assert Span.allocations == before

    def test_trace_raises_when_disabled(self):
        backend = Aer.get_backend("qasm_simulator")
        job = execute(_batch(size=1), backend, shots=32, seed=5)
        job.result()
        with pytest.raises(BackendError):
            job.trace()

    def test_fault_stats_still_published_to_registry(self):
        backend = Aer.get_backend("qasm_simulator")
        before = _fleet_total("repro_job_experiments_total")
        job = execute(_batch(size=2), backend, shots=32, seed=5)
        job.result()
        stats = job.fault_stats
        assert stats["experiments"] == 2
        assert stats["attempts"] == 2
        assert _fleet_total("repro_job_experiments_total") - before == 2

    def test_reset_metrics_leaves_fault_stats_unchanged(self):
        backend = Aer.get_backend("qasm_simulator")
        job = execute(_batch(size=2), backend, shots=32, seed=5)
        job.result()
        stats = job.fault_stats
        assert stats["attempts"] == 2
        reset_metrics()
        assert job.fault_stats == stats

    def test_registry_series_do_not_grow_with_jobs(self):
        backend = Aer.get_backend("qasm_simulator")
        registry = get_metrics_registry()

        def series_count():
            return sum(len(family.series())
                       for family in registry.families())

        backend.run(_batch(size=1), shots=32, seed=5).result()
        series = series_count()
        before = _fleet_total("repro_job_experiments_total")
        for seed in range(20):
            backend.run(_batch(size=1), shots=32, seed=seed).result()
        assert series_count() == series
        assert _fleet_total("repro_job_experiments_total") - before == 20


class TestPassTimings:
    def test_pass_times_attached_to_compiled_circuit(self):
        clear_transpile_cache()
        circuit = _batch(size=1)[0]
        compiled = transpile(circuit, coupling_map="ibmqx4",
                             transpile_cache=False)
        names = [name for name, _ in compiled.pass_times]
        assert "Unroller" in names
        assert all(seconds >= 0.0 for _, seconds in compiled.pass_times)

    def test_verbose_prints_slowest_pass_table(self, capsys):
        clear_transpile_cache()
        circuit = _batch(size=1)[0]
        transpile(circuit, coupling_map="ibmqx4", verbose=True)
        out = capsys.readouterr().out
        assert "pass runs" in out
        assert "share" in out
        # A cache hit reruns nothing and says so.
        cached = transpile(circuit, coupling_map="ibmqx4", verbose=True)
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert cached.pass_times == []

    def test_pass_spans_feed_stage_histogram(self):
        clear_transpile_cache()
        registry = MetricsRegistry()
        enable_tracing(registry=registry)
        try:
            transpile(_batch(size=1)[0], coupling_map="ibmqx4",
                      transpile_cache=False)
        finally:
            disable_tracing()
        histogram = registry.get("repro_stage_seconds")
        assert histogram is not None
        stages = {key[0] for key in histogram.series()}
        assert any(stage.startswith("pass:") for stage in stages)
