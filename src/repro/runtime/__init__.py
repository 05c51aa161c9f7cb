"""Runtime service layer: durable queue, fair-share scheduling, sessions.

The paper's execution story ends at ``backend.run``; the real IBM Q
stack wraps that call in a managed runtime — jobs persist in a queue,
a fair-share policy arbitrates tenants, and sessions keep a device (and
its compiled artifacts) warm between jobs.  This package reproduces
that layer locally:

* :class:`~repro.runtime.store.JobStore` — one append-only JSON-lines
  journal (:class:`~repro.providers.journal.Journal`) of jobs and their
  chunk checkpoints; jobs survive process death;
  :meth:`~repro.runtime.store.JobStore.compact` rewrites the journal to
  a snapshot under a :class:`~repro.runtime.store.RetentionPolicy`;
* :class:`~repro.runtime.scheduler.FairShareScheduler` — weighted
  stride scheduling with per-tenant priorities, token-bucket rate
  limits, and backend concurrency caps;
* :class:`~repro.runtime.breaker.CircuitBreaker` — per-backend failure
  containment (CLOSED/OPEN/HALF_OPEN with seeded probe jitter);
* :class:`~repro.runtime.service.RuntimeService` — worker threads
  driving the shared :class:`~repro.providers.engine.ExecutionEngine`
  over warm backend instances, hardened with admission control,
  per-job deadlines, circuit breakers, and dead-letter quarantine;
  service jobs are bit-identical to direct ``backend.run``
  submissions;
* :class:`~repro.runtime.session.Session` — pins a tenant's jobs to a
  warm backend; quacks like a backend so the V2 primitives work over
  the service unchanged;
* :mod:`~repro.runtime.cli` — the ``repro-runtime`` admin CLI
  (status/cancel/requeue/compact/drain over a store directory).
"""

from repro.runtime.breaker import BreakerState, CircuitBreaker
from repro.runtime.scheduler import FairShareScheduler, TokenBucket
from repro.runtime.service import RuntimeJob, RuntimeService
from repro.runtime.session import Session
from repro.runtime.store import (
    JobRecord,
    JobStore,
    RetentionPolicy,
    TERMINAL_STATES,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "FairShareScheduler",
    "JobRecord",
    "JobStore",
    "RetentionPolicy",
    "RuntimeJob",
    "RuntimeService",
    "Session",
    "TERMINAL_STATES",
    "TokenBucket",
]
