"""Job-level telemetry: the pipeline's tracing and metrics glue.

Two classes bridge the generic tracer to the execution pipeline:

* :class:`JobTrace` lives in the submitting process, one per
  :class:`~repro.providers.backend.Job`.  It owns the deterministic root
  ``job`` span (trace id derived from the job id), opens the
  ``assemble`` / ``transpile`` / ``dispatch`` / ``collect`` stage spans,
  hands each experiment a serializable span context for the config
  payload, merges worker-recorded spans back at collect, and — tracing
  enabled or not — adds each provider job's fault/retry tallies to the
  fleet-wide counters of the process-wide metrics registry at its
  :meth:`finalize`.  The job's own ledger is ``job.fault_stats``,
  computed from its outcomes; nothing reads the counters back.

* :class:`ExperimentRecorder` lives wherever the experiment actually
  runs — a process-pool worker, a thread, or the collecting thread
  itself.  Built from the ``span_context`` dictionary in the experiment
  config, it records an ``experiment`` span (sequence number = the
  experiment's batch index, so ids are executor-independent) with one
  ``run``/``retry`` child per attempt, and ships everything back as
  plain dictionaries on ``outcome.spans``.

When tracing is disabled no span context is injected, recorders are
never constructed, and every :class:`JobTrace` method degrades to the
no-op tracer — the disabled pipeline allocates zero spans.
"""

from __future__ import annotations

import os

from repro.exceptions import BackendError
from repro.telemetry.metrics import get_metrics_registry
from repro.telemetry.span import (
    Span,
    SpanContext,
    SpanStatus,
    derive_trace_id,
)
from repro.telemetry.trace import Trace
from repro.telemetry.tracer import (
    RecordingTracer,
    TraceStore,
    get_global_tracer,
    pop_ambient_span,
    pop_tracer_override,
    push_ambient_span,
    push_tracer_override,
)

#: Fleet-wide counter families, one unlabelled series each, that every
#: provider job's fault ledger adds to at its finalize: ``(family, help,
#: ledger key)``.  A list-valued ledger entry counts its length.
FAULT_COUNTERS = (
    ("repro_job_experiments_total", "Experiments collected", "experiments"),
    ("repro_job_attempts_total", "Experiment attempts (retries included)",
     "attempts"),
    ("repro_job_retries_total", "Experiment re-runs after transient faults",
     "retries"),
    ("repro_job_faults_injected_total", "Faults injected by chaos testing",
     "faults_injected"),
    ("repro_job_fallbacks_total", "Executor degradations taken",
     "fallbacks"),
    ("repro_job_failures_total", "Experiments that exhausted retries",
     "failed_experiments"),
    ("repro_job_backoff_seconds_total", "Seconds slept in retry backoff",
     "backoff_total_s"),
    ("repro_job_chunks_total", "Shot-chunks planned", "total_chunks"),
    ("repro_job_chunks_completed_total", "Shot-chunks that finished",
     "completed_chunks"),
    ("repro_job_chunks_resumed_total",
     "Shot-chunks restored from a checkpoint ledger", "resumed_chunks"),
)


class JobTrace:
    """Per-job telemetry hub: root span, stage spans, metrics publication.

    Constructed at submission (``execute`` builds one before transpiling
    so compile spans join the trace; ``BaseBackend.run`` builds one
    otherwise).  The tracer is captured at construction, so a job keeps
    recording into the store that was active when it was submitted even
    if tracing is toggled afterwards.
    """

    def __init__(self, job_id: str, backend_name: str = "", tracer=None):
        self.tracer = get_global_tracer() if tracer is None else tracer
        self.enabled = self.tracer.enabled
        self.job_id = job_id
        self.trace_id = derive_trace_id(job_id)
        self.backend_name = backend_name
        self.root = None
        #: The current run's ``dispatch`` span, and how many runs (a
        #: service retry, a requeue, a resume) this trace has seen.
        self._dispatch_span = None
        self._runs = 0
        if self.enabled:
            self.root = Span(
                "job", self.trace_id, "", 0,
                {"job_id": job_id, "backend": backend_name},
            )

    def stage(self, name: str, attributes=None):
        """Context manager for a pipeline stage span under the job root.

        Stage spans (``assemble``, ``transpile``, ``collect``) become the
        ambient span on this thread while open, so nested layers — the
        pass manager, the broadcast engine — attach without plumbing.
        """
        return self.tracer.span(name, parent=self.root,
                                attributes=attributes)

    def dispatch_started(self, kind: str, experiments: int):
        """Open this run's ``dispatch`` span (ends at :meth:`finalize`).

        Its seq is the run's number under this trace, so the spans of a
        re-run (a service retry, a requeue, a restart's resume) never
        share ids with an earlier run's.
        """
        self._dispatch_span = self.tracer.start_span(
            "dispatch", parent=self.root, seq=self._runs,
            attributes={"executor": kind, "experiments": experiments},
        )
        self._runs += 1
        return self._dispatch_span

    def set_executor(self, kind: str) -> None:
        """Record the executor kind that actually ran (degradations and
        the silent processes→threads flip for spec-less backends)."""
        if self._dispatch_span is not None:
            self._dispatch_span.set_attribute("executor", kind)

    def experiment_context(self, index: int, name: str, chunk=None,
                           chunks: int = 1, seq=None):
        """The serializable span context for experiment ``index``.

        Injected into the experiment config as ``span_context`` so the
        worker-side :class:`ExperimentRecorder` parents its spans to this
        job's ``dispatch`` span.  None when tracing is disabled — the
        config then carries no telemetry at all.  For a shot-chunk
        payload, ``chunk``/``chunks`` describe the unit and ``seq`` (the
        payload's batch position) keeps the deterministic span ids unique
        across the chunks of one experiment.
        """
        if not self.enabled or self._dispatch_span is None:
            return None
        context = {
            "trace_id": self.trace_id,
            "span_id": self._dispatch_span.span_id,
            "experiment_index": int(index),
            "experiment_name": name,
        }
        if chunk is not None:
            context["chunk_index"] = int(chunk)
            context["total_chunks"] = int(chunks)
            context["payload_seq"] = int(index if seq is None else seq)
        return context

    def record_fallback(self, transition: str) -> None:
        """Record one executor degradation as an ERROR child span."""
        if not self.enabled:
            return
        span = self.tracer.start_span(
            "fallback", parent=self._dispatch_span or self.root,
            attributes={"transition": transition},
        )
        span.set_error(f"executor degraded: {transition}")
        self.tracer.end_span(span)

    def merge_outcomes(self, outcomes) -> None:
        """Absorb worker-recorded spans shipped on ``outcome.spans``.

        Idempotent: spans are keyed by their deterministic ids, so
        repeated partial collects never duplicate.
        """
        if not self.enabled:
            return
        store = self.tracer.store
        for outcome in outcomes:
            for payload in getattr(outcome, "spans", ()) or ():
                store.add_dict(payload)

    def finalize(self, stats: dict) -> None:
        """Publish one run's ledger and close its spans.

        ``stats`` is the provider job's ``fault_stats``.  Runs regardless
        of tracing state: the metrics registry is always on.  Every call
        adds its ledger to the fleet-wide :data:`FAULT_COUNTERS` — the
        runtime service reuses a job's trace for a service retry, a
        requeue or a restart's resume, and each re-run is a provider job
        of its own.  The call ends that run's ``dispatch`` span, and the
        root ``job`` span takes the latest run's tallies and status and
        ends with it.
        """
        registry = get_metrics_registry()
        for name, help_text, key in FAULT_COUNTERS:
            value = stats[key]
            registry.counter(name, help_text).inc(
                len(value) if isinstance(value, list) else value
            )
        if not self.enabled:
            return
        if self._dispatch_span is not None:
            self._dispatch_span.set_attribute(
                "fallbacks", list(stats["fallbacks"])
            )
            self.tracer.end_span(self._dispatch_span)
        self.root.set_attributes({
            "experiments": stats["experiments"],
            "attempts": stats["attempts"],
            "retries": stats["retries"],
        })
        failed = stats["failed_experiments"]
        self.root.status, self.root.error = SpanStatus.OK, None
        if failed:
            self.root.set_error(
                f"{len(failed)} experiment(s) failed: {', '.join(failed)}"
            )
        # The root spans every run so far: re-end it at this one.
        self.root.duration = None
        self.tracer.end_span(self.root)

    def trace(self) -> Trace:
        """The job's :class:`~repro.telemetry.trace.Trace` as recorded so
        far (complete once the job's result has been collected).

        Raises :class:`BackendError` when tracing was disabled at
        submission — there is nothing to query.
        """
        if not self.enabled:
            raise BackendError(
                "tracing is disabled; call "
                "repro.telemetry.enable_tracing() before submitting the "
                "job to record its trace"
            )
        spans = list(self.tracer.store.spans(self.trace_id))
        have = {span.span_id for span in spans}
        for span in (self.root, self._dispatch_span):
            if isinstance(span, Span) and span.span_id not in have:
                spans.append(span)
        return Trace(self.trace_id, spans)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"JobTrace({self.job_id}, {state})"


class ExperimentRecorder:
    """Worker-side span recording for one experiment.

    Built inside ``run_assembled_experiment`` from the ``span_context``
    dictionary the submitting process injected into the experiment
    config.  Records into its own local tracer/store (installed as this
    thread's tracer override, so engine-level instrumentation lands
    here), and :meth:`finish` returns every recorded span as a plain
    dictionary — picklable cargo for ``outcome.spans``.
    """

    def __init__(self, payload: dict):
        self.tracer = RecordingTracer(store=TraceStore())
        parent = SpanContext(payload["trace_id"], payload["span_id"])
        index = int(payload.get("experiment_index", 0))
        attributes = {
            "experiment": payload.get("experiment_name", ""),
            "index": index,
            "pid": os.getpid(),
        }
        chunk = payload.get("chunk_index")
        if chunk is not None:
            # One span per shot-chunk: the span name changes and the seq
            # is the payload's batch position, so the deterministic ids
            # of sibling chunks (same experiment index) never collide.
            attributes["chunk"] = int(chunk)
            attributes["total_chunks"] = int(
                payload.get("total_chunks", 1)
            )
            name, seq = "chunk", int(payload.get("payload_seq", index))
        else:
            name, seq = "experiment", index
        self.span = self.tracer.start_span(
            name, parent=parent, seq=seq, attributes=attributes,
        )
        push_tracer_override(self.tracer)
        push_ambient_span(self.span)

    def start_attempt(self, attempt: int) -> Span:
        """Open the span for attempt ``attempt`` (``run`` then ``retry``)."""
        span = self.tracer.start_span(
            "run" if attempt == 0 else "retry",
            parent=self.span, seq=attempt,
            attributes={"attempt": attempt},
        )
        push_ambient_span(span)
        return span

    def end_attempt(self, span: Span, error=None) -> None:
        """Close an attempt span, marking it ERROR when the attempt raised."""
        pop_ambient_span(span)
        if error is not None:
            span.set_error(f"{type(error).__name__}: {error}")
        self.tracer.end_span(span)

    def record_backoff(self, wait: float) -> None:
        """Note a retry backoff sleep on the experiment span."""
        self.span.add_event(f"retry backoff {wait:.4f}s")

    def finish(self, outcome) -> list:
        """Close the experiment span and return all spans as dictionaries."""
        pop_ambient_span(self.span)
        pop_tracer_override()
        self.span.set_attributes({
            "status": outcome.status,
            "attempts": getattr(outcome, "attempts", 1),
            "shots": outcome.shots,
        })
        if not outcome.success and outcome.error:
            self.span.set_error(outcome.error)
        self.tracer.end_span(self.span)
        return [span.to_dict() for span in self.tracer.store.all_spans()]
