"""Spans: the unit of hierarchical tracing.

A :class:`Span` records one timed stage of the execution pipeline — a
job, an assemble step, a transpiler pass, one experiment attempt inside a
process-pool worker — with monotonic duration, wall-clock start (for
cross-process ordering), structured attributes, and an OK/ERROR status.

Span identity is *deterministic*: ids are sha256-derived from the trace
id, the parent span id, the span name, and a sequence number (the child
index under that parent, or an explicit stable index such as the
experiment's position in its batch).  Two runs of the same seeded job
therefore produce byte-identical span ids, and the span tree of a batch
is identical no matter which executor ran it.

Spans serialize losslessly to plain dictionaries (:meth:`Span.to_dict` /
:meth:`Span.from_dict`); that is how worker processes ship their spans
back across the process boundary with their results.
"""

from __future__ import annotations

import hashlib
import time


class SpanStatus:
    """String constants for a span's terminal status."""

    OK = "OK"
    ERROR = "ERROR"


def derive_trace_id(key) -> str:
    """Deterministic 16-hex-digit trace id from a stable key (job id)."""
    return hashlib.sha256(f"trace:{key}".encode()).hexdigest()[:16]


def derive_span_id(trace_id: str, parent_id: str, name: str,
                   seq: int) -> str:
    """Deterministic 16-hex-digit span id from the span's tree position."""
    return hashlib.sha256(
        f"span:{trace_id}:{parent_id}:{name}:{seq}".encode()
    ).hexdigest()[:16]


class SpanContext:
    """The serializable identity of a span: ``(trace_id, span_id)``.

    This is what crosses process boundaries — a worker receives its
    parent's context in the experiment config and parents its own spans
    to it, so the whole batch forms one connected trace.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_dict(self) -> dict:
        """JSON/pickle-compatible form for config injection."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanContext":
        """Rebuild a context shipped through a config dictionary."""
        return cls(payload["trace_id"], payload["span_id"])

    def __repr__(self):
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One timed, attributed stage of the pipeline.

    Lifecycle: constructed open (``duration`` is None), mutated via
    :meth:`set_attribute` / :meth:`add_event` / :meth:`set_error`, and
    closed exactly once by :meth:`end` (idempotent).  ``start_wall`` is
    wall-clock (comparable across processes on one host); ``duration``
    is measured on the monotonic clock.
    """

    #: Diagnostic tally of Span objects ever constructed in this process.
    #: The no-op tracer must leave it untouched (asserted in tests and in
    #: the telemetry benchmark).
    allocations = 0

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "seq", "attributes",
        "events", "status", "error", "start_wall", "duration", "_start",
    )

    def __init__(self, name: str, trace_id: str, parent_id: str = "",
                 seq: int = 0, attributes=None):
        Span.allocations += 1
        self.name = name
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.seq = int(seq)
        self.span_id = derive_span_id(trace_id, parent_id, name, seq)
        self.attributes = dict(attributes or {})
        self.events: list = []
        self.status = SpanStatus.OK
        self.error = None
        self.start_wall = time.time()
        self.duration = None
        self._start = time.perf_counter()

    @property
    def context(self) -> SpanContext:
        """This span's propagatable identity."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        """Whether :meth:`end` has run."""
        return self.duration is not None

    def set_attribute(self, key: str, value) -> None:
        """Attach one structured attribute."""
        self.attributes[key] = value

    def set_attributes(self, attributes: dict) -> None:
        """Attach several structured attributes at once."""
        self.attributes.update(attributes)

    def add_event(self, text: str) -> None:
        """Record a timestamped point event (offset seconds, message)."""
        self.events.append(
            (round(time.perf_counter() - self._start, 9), str(text))
        )

    def set_error(self, error) -> None:
        """Mark the span failed and record the error text."""
        self.status = SpanStatus.ERROR
        self.error = str(error)

    def end(self) -> "Span":
        """Close the span (first call wins); returns self for chaining."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._start
        return self

    def to_dict(self) -> dict:
        """Lossless JSON/pickle-compatible form (ends an open span)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "seq": self.seq,
            "start_wall": self.start_wall,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "events": [list(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a (finished) span shipped from another process."""
        span = cls.__new__(cls)
        Span.allocations += 1
        span.trace_id = payload["trace_id"]
        span.span_id = payload["span_id"]
        span.parent_id = payload.get("parent_id", "")
        span.name = payload["name"]
        span.seq = payload.get("seq", 0)
        span.attributes = dict(payload.get("attributes", {}))
        span.events = [tuple(event) for event in payload.get("events", [])]
        span.status = payload.get("status", SpanStatus.OK)
        span.error = payload.get("error")
        span.start_wall = payload.get("start_wall", 0.0)
        span.duration = payload.get("duration")
        span._start = 0.0
        return span

    def __repr__(self):
        state = (
            f"{self.duration * 1e3:.2f}ms" if self.finished else "open"
        )
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"status={self.status}, {state})"
        )
