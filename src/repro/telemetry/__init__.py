"""Pipeline telemetry: hierarchical tracing and the unified metrics registry.

The observability layer of the execution pipeline:

* **Tracing** — ``enable_tracing()`` swaps the process-global no-op
  tracer for a recording one; every job submitted afterwards records a
  hierarchical trace (``job`` → ``assemble`` → ``transpile`` →
  per-pass → ``dispatch`` → per-experiment ``run``/``retry`` →
  ``collect``) with deterministic span ids, queryable as
  ``job.trace()``.  Span context propagates across the process-pool
  boundary through the experiment config, so worker spans join the
  parent trace.  Disabled (the default), the instrumentation allocates
  no spans.
* **Metrics** — ``get_metrics_registry()`` returns the always-on
  process-wide registry of labelled counters/gauges/histograms that
  holds fleet-wide totals (fault/retry counters summed over jobs,
  transpile-cache gauges, runtime queue series) and exports as a JSON
  tree or Prometheus text.  Per-job and per-cache ledgers
  (``job.fault_stats``, ``TranspileCache.stats()``) are kept by their
  owners and never read back from the registry.
* **Exporters** — JSON-lines span streams (:func:`export_jsonl`,
  :class:`JsonlExporter`) and :func:`prometheus_text`.
"""

from repro.telemetry.exporters import (
    JsonlExporter,
    export_jsonl,
    load_jsonl,
    prometheus_text,
)
from repro.telemetry.jobtrace import ExperimentRecorder, JobTrace
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    get_metrics_registry,
    reset_metrics,
)
from repro.telemetry.span import (
    Span,
    SpanContext,
    SpanStatus,
    derive_span_id,
    derive_trace_id,
)
from repro.telemetry.trace import Trace
from repro.telemetry.tracer import (
    NoOpTracer,
    RecordingTracer,
    TraceStore,
    current_span,
    disable_tracing,
    enable_tracing,
    get_global_tracer,
    get_trace_store,
    get_tracer,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "ExperimentRecorder",
    "Gauge",
    "Histogram",
    "JobTrace",
    "JsonlExporter",
    "MetricError",
    "MetricsRegistry",
    "NoOpTracer",
    "RecordingTracer",
    "Span",
    "SpanContext",
    "SpanStatus",
    "Trace",
    "TraceStore",
    "current_span",
    "derive_span_id",
    "derive_trace_id",
    "disable_tracing",
    "enable_tracing",
    "export_jsonl",
    "get_global_tracer",
    "get_metrics_registry",
    "get_trace_store",
    "get_tracer",
    "load_jsonl",
    "prometheus_text",
    "reset_metrics",
    "tracing_enabled",
]
