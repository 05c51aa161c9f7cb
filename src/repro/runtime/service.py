"""The runtime service: durable queue, fair-share dispatch, warm backends.

:class:`RuntimeService` models the managed execution layer of the real
IBM Q cloud on top of this repo's local simulators.  A submission does
not run inline — it is persisted to the :class:`~repro.runtime.store
.JobStore`, queued through the :class:`~repro.runtime.scheduler
.FairShareScheduler`, and eventually dispatched by a worker thread onto
a *warm* backend instance through the same
:class:`~repro.providers.engine.ExecutionEngine` that powers direct
``backend.run`` calls — so a service-scheduled job is bit-identical to
the equivalent direct submission.

Durability: every job's ``job`` record lands in the store's journal,
``jobs.jsonl``, before it is queued, and every circuits job checkpoints
its chunks into the same journal.  A service constructed over an
existing store directory **recovers** from one replay of it: unfinished
jobs re-queue, and a job that died mid-run is prepared again from its
``job`` record with the chunks that replay holds as finished units —
running only the missing chunks, with merged results bit-identical to
an uninterrupted run.

**Overload and failure containment** (the production-hardening layer):

* *admission control* — optional per-tenant and global queue-depth and
  queued-shots limits; a submission over the limit raises
  :class:`~repro.exceptions.QueueFullError` carrying a deterministic
  ``retry_after`` hint, or blocks for capacity with
  ``submit(..., wait=True)``;
* *deadlines* — ``submit(..., deadline=<seconds>)`` expires the job at
  dequeue (never dispatched) or mid-run (cooperative cancel at the next
  chunk boundary, delivered chunks kept); terminal state ``EXPIRED``;
* *circuit breakers* — consecutive infrastructure failures on one
  backend open its :class:`~repro.runtime.breaker.CircuitBreaker`; the
  scheduler then skips that backend like a saturated one, and seeded
  half-open probes re-admit traffic once the backend recovers;
* *dead-letter quarantine* — a job whose experiments exhaust their
  retries across ``service_attempts`` service-level attempts lands in
  ``QUARANTINED`` with its fault ledger persisted, instead of poisoning
  workers forever; :meth:`RuntimeService.requeue` re-submits it as a
  fresh run;
* *compaction* — :meth:`RuntimeService.compact` rewrites the journal
  to a last-state-wins snapshot and applies the configured
  :class:`~repro.runtime.store.RetentionPolicy`.

Telemetry (unified metrics registry):

* ``repro_runtime_queue_depth{tenant}`` / ``repro_runtime_queued_shots
  {tenant}`` — queued jobs and shots per tenant;
* ``repro_runtime_wait_seconds{tenant}`` — queue wait histogram;
* ``repro_runtime_jobs_submitted/started/completed{tenant}`` counters
  (completions carry a ``state`` label: DONE/ERROR/CANCELLED/EXPIRED/
  QUARANTINED), plus ``repro_runtime_jobs_rejected/requeued{tenant}``;
* ``repro_runtime_state_transitions{state}`` — every persisted
  lifecycle transition;
* ``repro_runtime_breaker_state{backend}`` (0=closed, 1=half-open,
  2=open) and ``repro_runtime_breaker_transitions{backend,state}``;

and each job's trace (when tracing is enabled) gains a ``queued`` span
between submission and dispatch, parented to the same root the engine's
assemble/dispatch/collect spans join; breaker trips and the
EXPIRED/QUARANTINED transitions add their own spans to the trace of the
job that caused them.
"""

from __future__ import annotations

import threading
import time

from repro.exceptions import (
    BackendError,
    DeadlineExpiredError,
    JobQuarantinedError,
    JobTimeoutError,
    QueueFullError,
)
from repro.providers.executor import check_run_options, resolve_backend
from repro.providers.journal import decode, encode
from repro.providers.retry import (
    infrastructure_failure,
    is_infrastructure_error,
)
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.scheduler import FairShareScheduler
from repro.runtime.store import (
    JobRecord,
    JobStore,
    RetentionPolicy,
    TERMINAL_STATES,
)
from repro.telemetry.jobtrace import JobTrace
from repro.telemetry.metrics import get_metrics_registry

#: Options a job takes besides the run options, by kind: a circuits job
#: compiles, so it takes ``execute``'s compile knobs; pubs never compile
#: and take none.
SERVICE_OPTIONS = {
    "circuits": ("optimization_level", "transpile_cache"),
    "pubs": (),
}

#: Buckets tuned for queue waits: sub-millisecond to minutes.
_WAIT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
                 120.0, float("inf"))


class RuntimeJob:
    """A service-side job handle, quacking like a provider ``Job``.

    Lifecycle: ``SUBMITTED`` (persisted) -> ``QUEUED`` (scheduler) ->
    ``RUNNING`` (worker picked it, a provider job exists) -> ``DONE`` /
    ``ERROR`` / ``CANCELLED`` / ``EXPIRED`` (deadline passed) /
    ``QUARANTINED`` (dead-lettered after exhausting service attempts).
    :meth:`result`, :meth:`stream`, :meth:`cancel`, ``fault_stats`` and
    :meth:`trace` mirror the provider job API, so primitives (and user
    code written against ``backend.run``) work unchanged over the
    service.
    """

    def __init__(self, service, record: JobRecord, trace: JobTrace):
        self._service = service
        self._record = record
        self._trace = trace
        self._state = record.state
        self._provider_job = None
        self._result = record.result
        self._error = None
        self._events: list = []
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        #: Deadline on the service's (monotonic) clock scale, or None.
        self._deadline_at = None
        if record.state in TERMINAL_STATES:
            self._done.set()

    # -- identity --------------------------------------------------------

    @property
    def job_id(self) -> str:
        return self._record.job_id

    @property
    def tenant(self) -> str:
        return self._record.tenant

    @property
    def session_id(self):
        return self._record.session

    @property
    def provider_job(self):
        """The underlying provider ``Job`` once dispatched (else None)."""
        return self._provider_job

    # -- lifecycle -------------------------------------------------------

    def status(self) -> str:
        """Current state: SUBMITTED/QUEUED/RUNNING/DONE/ERROR/CANCELLED/
        EXPIRED/QUARANTINED."""
        return self._state

    @property
    def service_attempts(self) -> int:
        """Service-level attempts consumed (dead-letter budget input)."""
        return self._record.attempts

    @property
    def quarantine_record(self):
        """The persisted fault ledger for a QUARANTINED job (else
        None)."""
        return self._record.quarantine

    def result(self, timeout=None):
        """Block for the job's :class:`~repro.providers.result.Result`.

        Unlike a direct ``backend.run`` job, a service job may sit in
        the queue first — the timeout covers queue wait plus execution.
        Raises :class:`JobTimeoutError` past the deadline (the job keeps
        running; call again), :class:`BackendError` if the job was
        cancelled, :class:`DeadlineExpiredError` if it expired before
        anything ran, and :class:`JobQuarantinedError` if it was
        dead-lettered.  A job that expired *mid-run* returns its partial
        result instead — the chunks delivered before the deadline are
        kept.
        """
        if not self._done.wait(timeout):
            raise JobTimeoutError(
                f"runtime job {self.job_id} did not finish within "
                f"{timeout}s (state {self._state})"
            )
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise BackendError(f"runtime job {self.job_id} was cancelled")
        return self._result

    def stream(self):
        """Yield the job's incremental events (chunk/experiment), live.

        Events match ``Job.stream`` exactly — the service runner relays
        them as the provider job produces them, so a consumer can watch
        a queued job start and stream through to completion.  Events
        delivered before the consumer attached are replayed first.
        """
        index = 0
        while True:
            with self._changed:
                while index >= len(self._events) and not self._done.is_set():
                    self._changed.wait()
                events = self._events[index:]
                index = len(self._events)
                finished = self._done.is_set()
            for event in events:
                yield event
            if finished and index >= len(self._events):
                return

    def cancel(self) -> bool:
        """Cancel the job; True if anything was actually stopped.

        A queued job is withdrawn from the scheduler and moves straight
        to CANCELLED; a running job delegates to the provider job's
        ``cancel`` (experiments already finished keep their results).
        """
        return self._service._cancel(self)

    # -- observability ---------------------------------------------------

    @property
    def fault_stats(self) -> dict:
        """The provider job's fault/retry ledger (empty pre-dispatch;
        the persisted quarantine ledger for a dead-lettered job)."""
        if self._provider_job is not None:
            return self._provider_job.fault_stats
        if self._record.quarantine is not None:
            return self._record.quarantine.get("fault_stats", {})
        return {}

    def trace(self):
        """The job's trace (requires tracing enabled before submit)."""
        return self._trace.trace()

    @property
    def job_trace(self) -> JobTrace:
        return self._trace

    def __repr__(self):
        return (
            f"RuntimeJob({self.job_id}, tenant={self.tenant!r}, "
            f"state={self._state})"
        )

    # -- service-side hooks ----------------------------------------------

    def _set_state(self, state: str) -> None:
        with self._changed:
            self._state = state
            self._record.state = state
            if state in TERMINAL_STATES:
                self._done.set()
            self._changed.notify_all()

    def _push_event(self, event) -> None:
        with self._changed:
            self._events.append(event)
            self._changed.notify_all()

    def _finish(self, result=None, error=None, state="DONE") -> None:
        self._result = result
        self._error = error
        self._set_state(state)

    def _reopen(self) -> None:
        """Back to a runnable state (service retry / operator requeue)."""
        with self._changed:
            self._result = None
            self._error = None
            self._provider_job = None
            self._events = []
            self._done.clear()


class RuntimeService:
    """Multi-tenant execution service over a durable job store.

    ``store_dir`` holds the journal of jobs and their chunk checkpoints
    — point a fresh service at the same directory to recover jobs that
    a dead process left behind.  ``max_workers`` bounds concurrently
    *running* jobs (each worker thread drives one job at a time);
    ``backend_limits`` maps backend names to per-backend concurrency
    caps (jobs past the cap wait in the queue).  ``autostart=False``
    leaves the workers parked — submissions queue up and nothing runs
    until :meth:`start` — which the policy tests use to stage
    deterministic queue states.

    Hardening knobs:

    * ``max_queued_jobs`` / ``max_queued_per_tenant`` /
      ``max_queued_shots`` — admission-control ceilings (None =
      unlimited; rejected submissions raise
      :class:`~repro.exceptions.QueueFullError` with a deterministic
      ``retry_after`` hint);
    * ``service_attempts`` — how many service-level attempts an
      infrastructure-failing job gets before it is dead-lettered to
      ``QUARANTINED`` (default 2: one automatic requeue);
    * ``breaker`` — per-backend circuit-breaker configuration, a kwargs
      dict for :class:`~repro.runtime.breaker.CircuitBreaker`
      (``failure_threshold``/``reset_timeout``/``probe_limit``/
      ``jitter``/``seed``); ``False`` disables breakers;
    * ``retention`` — the default
      :class:`~repro.runtime.store.RetentionPolicy` (or kwargs dict)
      applied by :meth:`compact`.

    The service is a context manager; leaving the ``with`` block drains
    running jobs and stops the workers.
    """

    def __init__(self, store_dir, max_workers: int = 2,
                 backend_limits: dict = None, autostart: bool = True,
                 clock=None, max_queued_jobs: int = None,
                 max_queued_per_tenant: int = None,
                 max_queued_shots: int = None, service_attempts: int = 2,
                 breaker=None, retention=None):
        self._store = JobStore(store_dir)
        self._clock = clock if clock is not None else time.monotonic
        self._scheduler = FairShareScheduler(clock=self._clock)
        self._scheduler.set_tenant("default", weight=1.0)
        self._max_workers = max(1, int(max_workers))
        self._backend_limits = dict(backend_limits or {})
        if max_queued_jobs is not None and max_queued_jobs < 1:
            raise BackendError("max_queued_jobs must be >= 1")
        if max_queued_per_tenant is not None and max_queued_per_tenant < 1:
            raise BackendError("max_queued_per_tenant must be >= 1")
        if max_queued_shots is not None and max_queued_shots < 1:
            raise BackendError("max_queued_shots must be >= 1")
        self._max_queued_jobs = max_queued_jobs
        self._max_queued_per_tenant = max_queued_per_tenant
        self._max_queued_shots = max_queued_shots
        if service_attempts < 1:
            raise BackendError("service_attempts must be >= 1")
        self._service_attempts = int(service_attempts)
        if breaker is False:
            self._breaker_config = None
        else:
            self._breaker_config = dict(breaker or {})
        if retention is None or isinstance(retention, RetentionPolicy):
            self._retention = retention
        else:
            self._retention = RetentionPolicy(**retention)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict = {}
        self._queue_spans: dict = {}
        self._submit_stamps: dict = {}
        self._running_on: dict = {}
        self._backends: dict = {}
        self._breakers: dict = {}
        self._probe_jobs: dict = {}
        self._queued_shots: dict = {}
        self._job_shots: dict = {}
        self._avg_job_seconds = None
        self._session_counter = 0
        self._stop = False
        self._threads: list = []
        registry = get_metrics_registry()
        self._depth_gauge = registry.gauge(
            "repro_runtime_queue_depth",
            "Jobs queued in the runtime service", ("tenant",),
        )
        self._shots_gauge = registry.gauge(
            "repro_runtime_queued_shots",
            "Shots queued in the runtime service", ("tenant",),
        )
        self._wait_hist = registry.histogram(
            "repro_runtime_wait_seconds",
            "Queue wait before dispatch", ("tenant",),
            buckets=_WAIT_BUCKETS,
        )
        self._submitted = registry.counter(
            "repro_runtime_jobs_submitted",
            "Jobs accepted by the runtime service", ("tenant",),
        )
        self._rejected = registry.counter(
            "repro_runtime_jobs_rejected",
            "Submissions refused by admission control", ("tenant",),
        )
        self._requeued = registry.counter(
            "repro_runtime_jobs_requeued",
            "Service-level retry and operator requeues", ("tenant",),
        )
        self._started = registry.counter(
            "repro_runtime_jobs_started",
            "Jobs dispatched by the runtime service", ("tenant",),
        )
        self._completed = registry.counter(
            "repro_runtime_jobs_completed",
            "Jobs finished by the runtime service", ("tenant", "state"),
        )
        self._transitions = registry.counter(
            "repro_runtime_state_transitions",
            "Persisted job lifecycle transitions", ("state",),
        )
        self._breaker_gauge = registry.gauge(
            "repro_runtime_breaker_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open)",
            ("backend",),
        )
        self._breaker_trans = registry.counter(
            "repro_runtime_breaker_transitions",
            "Circuit breaker state transitions", ("backend", "state"),
        )
        self._recover()
        if autostart:
            self.start()

    # -- tenants and backends --------------------------------------------

    def set_tenant(self, name: str, weight: float = 1.0, rate: float = None,
                   burst: float = None) -> None:
        """Configure a tenant's fair share and optional rate limit."""
        with self._wake:
            self._scheduler.set_tenant(name, weight, rate, burst)
            self._wake.notify_all()

    def backend(self, name: str, provider: str = "aer"):
        """The service's warm backend instance for ``(provider, name)``.

        One instance per name lives for the service's lifetime, so its
        gate-matrix caches (and the process transpile cache) stay warm
        across every job the service runs on it.
        """
        key = (provider, name)
        with self._lock:
            backend = self._backends.get(key)
            if backend is None:
                backend = resolve_backend(key)
                self._backends[key] = backend
            return backend

    def session(self, backend: str = "qasm_simulator",
                provider: str = "aer", tenant: str = "default"):
        """Open a :class:`~repro.runtime.session.Session` on a warm
        backend."""
        from repro.runtime.session import Session

        warm = self.backend(backend, provider)
        with self._lock:
            self._session_counter += 1
            session_id = f"sess-{self._session_counter}"
        return Session(self, warm, tenant=tenant, session_id=session_id)

    def _breaker(self, backend_name: str):
        """The (lazily created) breaker for a backend, or None when
        disabled.  Caller holds the lock."""
        if self._breaker_config is None:
            return None
        breaker = self._breakers.get(backend_name)
        if breaker is None:
            breaker = CircuitBreaker(
                backend_name, clock=self._clock, **self._breaker_config
            )
            self._breakers[backend_name] = breaker
        return breaker

    def _sync_breaker(self, breaker, job=None) -> None:
        """Mirror a breaker's state into metrics (and the job's trace)."""
        synced = getattr(breaker, "_synced", 0)
        history = breaker.transitions
        for state, generation in history[synced:]:
            self._breaker_trans.inc(labels={
                "backend": breaker.backend_name, "state": state,
            })
            if job is not None:
                span = job._trace.stage("breaker", {
                    "backend": breaker.backend_name,
                    "state": state,
                    "generation": generation,
                })
                span.__enter__()
                span.__exit__(None, None, None)
        breaker._synced = len(history)
        self._breaker_gauge.set(
            breaker.gauge_value(),
            labels={"backend": breaker.backend_name},
        )

    def breaker_snapshot(self) -> dict:
        """Per-backend breaker state (observability/admin CLI)."""
        with self._lock:
            return {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            }

    # -- submission ------------------------------------------------------

    def submit(self, circuits, backend="qasm_simulator", provider="aer",
               tenant: str = "default", priority: int = 0, session=None,
               deadline: float = None, wait: bool = False,
               wait_timeout: float = None, **options) -> RuntimeJob:
        """Queue a circuits job; returns immediately with a
        :class:`RuntimeJob`.

        ``backend`` may be a name (resolved against ``provider``) or a
        registry backend instance.  ``priority`` orders jobs *within*
        the tenant (higher first); fairness *across* tenants is the
        scheduler's weighted share.  ``deadline`` (seconds from now)
        expires the job if it has not finished in time: never dispatched
        if it expires in the queue, cooperatively cancelled at the next
        chunk boundary if it expires mid-run (delivered chunks kept) —
        terminal state ``EXPIRED`` either way.  When admission control
        is configured and the queue is full, ``wait=True`` blocks (up to
        ``wait_timeout`` seconds) for capacity instead of raising
        :class:`~repro.exceptions.QueueFullError`.  Remaining keyword
        options are the ``backend.run`` options (shots, seed, executor,
        retry_policy, ...) plus ``execute``'s compile knobs
        (``optimization_level``, ``transpile_cache``) — device backends
        compile at dispatch, on the worker, through the shared two-tier
        transpile cache; any other option is refused.  The job always
        checkpoints its chunks into the store's journal, so a
        ``checkpoint`` option is refused too.
        """
        return self._submit(circuits, "circuits", backend, provider,
                            tenant, priority, session, options,
                            deadline=deadline, wait=wait,
                            wait_timeout=wait_timeout)

    def submit_pubs(self, pubs, backend="qasm_simulator", provider="aer",
                    tenant: str = "default", priority: int = 0,
                    session=None, deadline: float = None,
                    wait: bool = False, wait_timeout: float = None,
                    **options) -> RuntimeJob:
        """Queue a primitives PUB job (see ``BaseBackend.run_pubs``)."""
        return self._submit(pubs, "pubs", backend, provider, tenant,
                            priority, session, options, deadline=deadline,
                            wait=wait, wait_timeout=wait_timeout)

    @staticmethod
    def _payload_shots(payload, options) -> int:
        """Queued-shots cost of one submission (admission accounting)."""
        shots = int(options.get("shots", 1024))
        if isinstance(payload, (list, tuple)):
            units = max(1, len(payload))
        else:
            units = 1
        return shots * units

    def _retry_after_hint(self) -> float:
        """Deterministic backoff hint for a rejected submission.

        Backlog divided by worker parallelism, scaled by the observed
        average job duration (EWMA) — a pure function of the service's
        current state, never of randomness.
        """
        average = self._avg_job_seconds or 0.1
        pending = self._scheduler.pending() + len(self._running_on)
        return round(
            max(0.05, average * (pending + 1) / self._max_workers), 3
        )

    def _admission_denial(self, tenant: str, shots: int):
        """Why a submission must be refused right now, or None.

        Caller holds the lock.
        """
        if self._max_queued_jobs is not None and \
                self._scheduler.pending() >= self._max_queued_jobs:
            return (
                f"queue full: {self._scheduler.pending()} jobs queued "
                f"(max_queued_jobs={self._max_queued_jobs})"
            )
        if self._max_queued_per_tenant is not None and \
                self._scheduler.pending(tenant) >= \
                self._max_queued_per_tenant:
            return (
                f"queue full for tenant '{tenant}': "
                f"{self._scheduler.pending(tenant)} jobs queued "
                f"(max_queued_per_tenant={self._max_queued_per_tenant})"
            )
        if self._max_queued_shots is not None:
            total = sum(self._queued_shots.values())
            if total + shots > self._max_queued_shots:
                return (
                    f"queue full: {total} shots queued + {shots} "
                    f"requested exceeds max_queued_shots="
                    f"{self._max_queued_shots}"
                )
        return None

    def _admit(self, tenant: str, shots: int, wait: bool,
               wait_timeout: float) -> None:
        """Block or raise until the submission fits under the limits.

        Caller holds the lock.
        """
        deadline_at = (
            None if wait_timeout is None
            else self._clock() + wait_timeout
        )
        while True:
            denial = self._admission_denial(tenant, shots)
            if denial is None:
                return
            if not wait:
                self._rejected.inc(labels={"tenant": tenant})
                raise QueueFullError(
                    f"{denial}; retry after "
                    f"{self._retry_after_hint()}s",
                    retry_after=self._retry_after_hint(),
                )
            remaining = None
            if deadline_at is not None:
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    self._rejected.inc(labels={"tenant": tenant})
                    raise QueueFullError(
                        f"{denial}; gave up waiting after "
                        f"{wait_timeout}s",
                        retry_after=self._retry_after_hint(),
                    )
            self._wake.wait(timeout=(
                min(0.05, remaining) if remaining is not None else 0.05
            ))

    def _submit(self, payload, kind, backend, provider, tenant, priority,
                session, options, deadline=None, wait=False,
                wait_timeout=None) -> RuntimeJob:
        if not isinstance(backend, str):
            spec = backend._backend_spec()
            if spec is None:
                raise BackendError(
                    "runtime jobs need a registry backend (Aer/IBMQ) so "
                    "the store can rebuild it after a restart"
                )
        else:
            spec = (provider, backend)
            backend = resolve_backend(spec)  # validate before persisting
        if deadline is not None and deadline <= 0:
            raise BackendError("deadline must be positive seconds")
        if "checkpoint" in options:
            raise BackendError(
                "runtime jobs checkpoint into the store's journal; the "
                "checkpoint option is not accepted"
            )
        check_run_options(options, SERVICE_OPTIONS[kind], backend)
        try:
            blob = encode((payload, options))
        except Exception as error:
            raise BackendError(
                f"runtime job payloads must be picklable for the durable "
                f"store: {error}"
            ) from None
        # The job runs the payload it journaled, not the caller's objects,
        # which the caller may still mutate; a restart replays the same.
        payload, options = decode(blob)
        shots = self._payload_shots(payload, options)
        with self._wake:
            self._admit(tenant, shots, wait, wait_timeout)
            job_id = self._store.next_job_id()
            record = JobRecord(
                job_id, tenant, spec, priority, session, kind, payload,
                options, submitted_at=time.time(),
                deadline=(
                    None if deadline is None else time.time() + deadline
                ),
            )
            trace = JobTrace(job_id, spec[1])
            job = RuntimeJob(self, record, trace)
            if deadline is not None:
                job._deadline_at = self._clock() + deadline
            self._jobs[job_id] = job
            self._store.append_job(record, blob)
            self._persist_state(job, "QUEUED")
            self._enqueue(job, trace)
            self._submitted.inc(labels={"tenant": tenant})
            self._wake.notify_all()
        return job

    def _persist_state(self, job: RuntimeJob, state: str,
                       attempt: int = None, error: str = None) -> None:
        """Write one lifecycle transition to the ledger + counter."""
        self._store.append_state(job.job_id, state, attempt=attempt,
                                 error=error)
        self._transitions.inc(labels={"state": state})

    def _enqueue(self, job: RuntimeJob, trace: JobTrace) -> None:
        """Queue a job with the scheduler (caller holds the lock)."""
        record = job._record
        # The queued span closes when a worker picks the job, so traces
        # show queue wait alongside the engine's pipeline stages.
        span = trace.stage("queued", {"tenant": record.tenant})
        span.__enter__()
        self._queue_spans[job.job_id] = span
        self._submit_stamps[job.job_id] = self._clock()
        shots = self._job_shots.get(job.job_id)
        if shots is None:
            shots = self._payload_shots(record.payload, record.options)
            self._job_shots[job.job_id] = shots
        self._queued_shots[record.tenant] = (
            self._queued_shots.get(record.tenant, 0) + shots
        )
        self._scheduler.submit(job.job_id, record.tenant,
                               priority=record.priority,
                               backend=record.backend_spec[1])
        job._set_state("QUEUED")
        self._sync_depth(record.tenant)

    def _release_queued(self, job: RuntimeJob) -> None:
        """Drop a job's queue accounting (dispatch/cancel/expire).

        Caller holds the lock.
        """
        span = self._queue_spans.pop(job.job_id, None)
        if span is not None:
            span.__exit__(None, None, None)
        shots = self._job_shots.pop(job.job_id, 0)
        tenant = job._record.tenant
        remaining = self._queued_shots.get(tenant, 0) - shots
        if remaining > 0:
            self._queued_shots[tenant] = remaining
        else:
            self._queued_shots.pop(tenant, None)
        self._shots_gauge.set(max(0, remaining), labels={"tenant": tenant})

    def _sync_depth(self, tenant: str) -> None:
        self._depth_gauge.set(self._scheduler.pending(tenant),
                              labels={"tenant": tenant})
        self._shots_gauge.set(self._queued_shots.get(tenant, 0),
                              labels={"tenant": tenant})

    # -- recovery --------------------------------------------------------

    def _recover(self) -> None:
        """Re-queue the store's unfinished jobs (crashed process pickup).

        Terminal jobs come back as finished :class:`RuntimeJob` handles
        (DONE jobs with their persisted Result, QUARANTINED jobs with
        their fault ledger; a job whose payload does not decode, whose
        ERROR is journaled once, with a ``result()`` that raises why).
        SUBMITTED/QUEUED/RUNNING jobs re-queue
        (service attempt counters restored from the journal, so a
        restart cannot reset a poison job's dead-letter budget); a job
        whose replay holds a checkpoint resumes from it when dispatched,
        re-running only the chunks that never checkpointed.  A recovered
        job keeps its wall-clock deadline: whatever budget remains is
        re-armed on the service clock, and an already-expired job
        expires at dequeue.
        """
        records = self._store.load()
        for job_id in sorted(records, key=JobStore._job_number):
            record = records[job_id]
            trace = JobTrace(job_id, record.backend_spec[1])
            job = RuntimeJob(self, record, trace)
            self._jobs[job_id] = job
            if record.state in TERMINAL_STATES:
                if record.state == "QUARANTINED":
                    job._error = JobQuarantinedError(
                        f"runtime job {job_id} is quarantined; "
                        f"requeue() it after fixing the cause"
                    )
                elif record.state == "ERROR" and record.payload is None:
                    if record.error is None:
                        record.error = "its journaled payload does not decode"
                        self._persist_state(job, "ERROR", error=record.error)
                    job._error = BackendError(
                        f"runtime job {job_id} cannot run: {record.error}"
                    )
                continue
            if record.deadline is not None:
                job._deadline_at = self._clock() + max(
                    0.0, record.deadline - time.time()
                )
            with self._wake:
                self._persist_state(job, "QUEUED",
                                    attempt=record.attempts or None)
                self._enqueue(job, trace)

    # -- worker machinery ------------------------------------------------

    def start(self) -> None:
        """Launch the worker threads (idempotent)."""
        with self._wake:
            self._stop = False
            self._threads = [t for t in self._threads if t.is_alive()]
            for index in range(self._max_workers - len(self._threads)):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"runtime-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; with ``wait`` blocks until they exit.

        Queued jobs stay QUEUED in the store — a new service over the
        same directory picks them up.
        """
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)
        self._threads = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.shutdown(wait=True)
        return False

    def _blocked_backends(self) -> frozenset:
        """Backends the scheduler must skip: saturated or breaker-held.

        Caller holds the lock.  An open breaker blocks its backend
        outright; a half-open one blocks it while its probe quota is in
        flight — either way the head-of-line job waits without being
        charged scheduler pass, exactly like backend saturation.
        """
        counts: dict = {}
        for backend_name in self._running_on.values():
            counts[backend_name] = counts.get(backend_name, 0) + 1
        blocked = set()
        for backend_name, count in counts.items():
            limit = self._backend_limits.get(backend_name)
            if limit is not None and count >= limit:
                blocked.add(backend_name)
        for backend_name, breaker in self._breakers.items():
            if not breaker.allows_dispatch():
                blocked.add(backend_name)
            self._sync_breaker(breaker)
        return frozenset(blocked)

    def _deadline_passed(self, job: RuntimeJob) -> bool:
        return (
            job._deadline_at is not None
            and self._clock() >= job._deadline_at
        )

    def _expire_queued(self, job: RuntimeJob) -> None:
        """Expire a job at dequeue — never dispatched.

        Caller holds the lock.
        """
        record = job._record
        self._release_queued(job)
        self._submit_stamps.pop(job.job_id, None)
        self._persist_state(job, "EXPIRED")
        self._completed.inc(
            labels={"tenant": record.tenant, "state": "EXPIRED"}
        )
        span = job._trace.stage("expired", {"where": "queue"})
        span.__enter__()
        span.__exit__(None, None, None)
        job._finish(
            error=DeadlineExpiredError(
                f"runtime job {job.job_id} expired in the queue "
                f"(deadline passed before dispatch)"
            ),
            state="EXPIRED",
        )
        self._sync_depth(record.tenant)

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                job = None
                while not self._stop:
                    job_id = self._scheduler.next_ready(
                        self._blocked_backends()
                    )
                    if job_id is not None:
                        job = self._jobs[job_id]
                        if self._deadline_passed(job):
                            # Deadline enforcement at dequeue: the job
                            # is dropped without dispatch, and this
                            # worker goes straight back to the queue.
                            self._expire_queued(job)
                            continue
                        self._begin_dispatch(job)
                        break
                    # Nothing eligible right now.  A short timed wait
                    # covers the cases no notify fires for: token buckets
                    # refilling, breaker probe windows elapsing, and
                    # backend slots freed by other services.
                    if self._scheduler.pending() > 0:
                        self._wake.wait(timeout=0.02)
                    else:
                        self._wake.wait()
                if self._stop:
                    return
            self._run_job(job)

    def _begin_dispatch(self, job: RuntimeJob) -> None:
        """Transition QUEUED -> RUNNING (caller holds the lock)."""
        record = job._record
        self._release_queued(job)
        stamp = self._submit_stamps.pop(job.job_id, None)
        if stamp is not None:
            self._wait_hist.observe(self._clock() - stamp,
                                    labels={"tenant": record.tenant})
        self._running_on[job.job_id] = record.backend_spec[1]
        breaker = self._breaker(record.backend_spec[1])
        if breaker is not None:
            self._probe_jobs[job.job_id] = breaker.on_dispatch()
            self._sync_breaker(breaker, job)
        self._started.inc(labels={"tenant": record.tenant})
        self._sync_depth(record.tenant)
        self._persist_state(job, "RUNNING")
        job._set_state("RUNNING")

    def _record_backend_health(self, job: RuntimeJob,
                               healthy: bool) -> None:
        """Feed one job's outcome to its backend's circuit breaker."""
        with self._wake:
            breaker = self._breakers.get(job._record.backend_spec[1])
            probe = self._probe_jobs.pop(job.job_id, False)
            if breaker is None:
                return
            if healthy:
                breaker.record_success(probe)
            else:
                breaker.record_failure(probe)
            self._sync_breaker(breaker, job)
            self._wake.notify_all()

    def _run_job(self, job: RuntimeJob) -> None:
        """Drive one job to completion on this worker thread."""
        record = job._record
        error = None
        result = None
        expired = False
        started = self._clock()
        try:
            provider_job = self._dispatch(job)
            job._provider_job = provider_job
            for event in provider_job.stream():
                job._push_event(event)
                if self._deadline_passed(job) and \
                        job._state != "CANCELLED":
                    # Mid-run expiry: cooperative cancel at this chunk
                    # boundary; everything delivered so far is kept.
                    expired = True
                    provider_job.cancel()
                    break
            if expired:
                result = provider_job.result(partial=True)
            else:
                result = provider_job.result()
        except Exception as exc:  # noqa: BLE001 — recorded, re-raised to
            error = exc           # the caller from job.result()
        finally:
            with self._wake:
                self._running_on.pop(job.job_id, None)
                duration = self._clock() - started
                if self._avg_job_seconds is None:
                    self._avg_job_seconds = duration
                else:
                    self._avg_job_seconds = (
                        0.8 * self._avg_job_seconds + 0.2 * duration
                    )
                self._wake.notify_all()
        if job._state == "CANCELLED":
            # cancel() landed mid-run; keep the terminal state (a
            # provider-job "cancelled" error is expected, not a failure).
            self._record_backend_health(job, healthy=True)
            self._terminate(job, result=None, state="CANCELLED")
            return
        if expired:
            self._record_backend_health(job, healthy=True)
            span = job._trace.stage("expired", {"where": "running"})
            span.__enter__()
            span.__exit__(None, None, None)
            if result is not None:
                self._store.append_result(job.job_id, result)
            self._terminate(job, result=result, state="EXPIRED")
            return
        if error is None and result.success:
            self._record_backend_health(job, healthy=True)
            self._store.append_result(job.job_id, result)
            # Only a failed job is requeued, so a DONE job never reads
            # its decoded payload copy again.
            record.payload = None
            self._terminate(job, result=result, state="DONE")
            return
        # The job failed.  Infrastructure-class failures feed the
        # breaker and the dead-letter budget; user errors terminate
        # ERROR immediately (re-running them would fail identically).
        infra = (
            is_infrastructure_error(error) if error is not None
            else infrastructure_failure(result)
        )
        self._record_backend_health(job, healthy=not infra)
        record.attempts += 1
        if infra:
            if record.attempts < self._service_attempts:
                self._service_retry(job)
                return
            self._quarantine(job, result, error)
            return
        if error is not None:
            self._terminate(job, error=error, state="ERROR")
        else:
            self._store.append_result(job.job_id, result)
            self._terminate(job, result=result, state="ERROR")

    def _terminate(self, job: RuntimeJob, result=None, error=None,
                   state="DONE") -> None:
        """Persist a terminal state and release result() waiters.

        The ledger write and the counter bump happen BEFORE waking the
        waiters, so anything they observe (store contents, metrics)
        already reflects the finished job.
        """
        self._persist_state(job, state)
        self._completed.inc(
            labels={"tenant": job._record.tenant, "state": state}
        )
        job._finish(result=result, error=error, state=state)

    def _service_retry(self, job: RuntimeJob) -> None:
        """Give an infrastructure-failed job another service attempt."""
        record = job._record
        job._reopen()
        with self._wake:
            self._requeued.inc(labels={"tenant": record.tenant})
            self._persist_state(job, "QUEUED", attempt=record.attempts)
            self._enqueue(job, job._trace)
            self._wake.notify_all()

    def _quarantine(self, job: RuntimeJob, result, error) -> None:
        """Dead-letter a poison job with its fault ledger attached."""
        record = job._record
        fault_stats = {}
        if job._provider_job is not None:
            try:
                fault_stats = job._provider_job.fault_stats
            except Exception:  # noqa: BLE001 — ledger is best-effort
                fault_stats = {}
        message = (
            str(error) if error is not None else "; ".join(
                f"{experiment.circuit_name}: {experiment.error}"
                for experiment in result.results
                if not experiment.success
            )
        )
        record.quarantine = {"fault_stats": fault_stats, "error": message}
        self._store.append_quarantine(job.job_id, fault_stats, message)
        span = job._trace.stage("quarantined", {
            "attempts": record.attempts,
        })
        span.__enter__()
        span.__exit__(None, None, None)
        self._terminate(
            job,
            error=JobQuarantinedError(
                f"runtime job {job.job_id} quarantined after "
                f"{record.attempts} service attempts: {message}"
            ),
            state="QUARANTINED",
        )

    def requeue(self, job_id: str, **option_overrides) -> RuntimeJob:
        """Re-submit a quarantined (or failed/cancelled/expired) job.

        The dead-letter escape hatch: after fixing the cause, the
        operator requeues the job — optionally overriding run options
        (``service.requeue(job_id, fault_injector=None)``) — and it goes
        back through the normal queue as a fresh run with a fresh
        service-attempt budget (:meth:`~repro.runtime.store.JobStore
        .requeue`).  Overridden options are persisted, so a restart
        replays the corrected job, and the quarantine record stays in
        the journal for the audit trail.
        """
        job = self.job(job_id)
        spec = job._record.backend_spec
        check_run_options(option_overrides,
                          SERVICE_OPTIONS[job._record.kind],
                          self.backend(spec[1], spec[0]))
        with self._wake:
            record = job._record
            self._store.requeue(record, option_overrides)
            if record.deadline is not None:
                job._deadline_at = self._clock() + max(
                    0.0, record.deadline - time.time()
                )
            job._reopen()
            self._requeued.inc(labels={"tenant": record.tenant})
            self._transitions.inc(labels={"state": "QUEUED"})
            self._enqueue(job, job._trace)
            self._wake.notify_all()
        return job

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, job: RuntimeJob):
        """Launch the provider job for one runtime job.

        A circuits job compiles, prepares and runs under the runtime
        job's own trace, checkpointing its chunks into the store's
        journal; when replay held a checkpoint (a restart), the restored
        chunks are finished units and only the missing ones run.
        """
        from repro.providers.checkpoint import restore
        from repro.providers.engine import get_execution_engine

        record = job._record
        options = dict(record.options)
        backend = self.backend(record.backend_spec[1],
                               record.backend_spec[0])
        engine = get_execution_engine()
        options["job_trace"] = job._trace
        if record.kind == "pubs":
            # The broadcast engine has no chunk checkpoint; recovery
            # re-runs.
            return engine.run_pubs(backend, record.payload, options)
        # Device backends compile first, exactly like ``execute`` —
        # through the shared transpile cache, which is what keeps a
        # session's repeat compiles warm.
        single = not isinstance(record.payload, (list, tuple))
        batch = [record.payload] if single else list(record.payload)
        batch = engine.compile_batch(
            backend, batch, job._trace,
            optimization_level=options.pop("optimization_level", 1),
            transpile_cache=options.pop("transpile_cache", True),
        )
        options["checkpoint"] = self._store.path
        checkpoint, record.checkpoint = record.checkpoint, None
        prepared = engine.prepare(backend, batch[0] if single else batch,
                                  options)
        return engine.launch(
            prepared, restore(checkpoint[1]) if checkpoint else None
        )

    # -- maintenance -----------------------------------------------------

    def compact(self, retention=None) -> dict:
        """Compact the job ledger, applying the retention policy.

        ``retention`` overrides the service-level policy for this run
        (a :class:`~repro.runtime.store.RetentionPolicy` or kwargs
        dict); with neither, compaction rewrites the ledger without
        pruning.  Safe while the service is running — appends and the
        snapshot/replace cycle are serialized by the store's locks — and
        safe against a crash mid-way (the replace is atomic).  Returns
        the compaction stats (also mirrored to the metrics registry).
        """
        if retention is None:
            retention = self._retention
        elif not isinstance(retention, RetentionPolicy):
            retention = RetentionPolicy(**retention)
        return self._store.compact(retention=retention)

    # -- job access ------------------------------------------------------

    def job(self, job_id: str) -> RuntimeJob:
        """Look up a job handle by id (live or recovered from the
        store)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise BackendError(f"unknown runtime job '{job_id}'")
        return job

    def jobs(self, tenant: str = None) -> list:
        """All job handles, newest first, optionally one tenant's."""
        selected = [
            job for job in self._jobs.values()
            if tenant is None or job.tenant == tenant
        ]
        selected.sort(
            key=lambda job: int(job.job_id.rsplit("-", 1)[1]), reverse=True
        )
        return selected

    def queue_snapshot(self) -> dict:
        """Per-tenant queue depth / pass / rate-limit state."""
        with self._lock:
            return self._scheduler.snapshot()

    def health_snapshot(self) -> dict:
        """Service-level health: admission state, breakers, backlog."""
        with self._lock:
            return {
                "queued_jobs": self._scheduler.pending(),
                "queued_shots": dict(self._queued_shots),
                "running_jobs": len(self._running_on),
                "limits": {
                    "max_queued_jobs": self._max_queued_jobs,
                    "max_queued_per_tenant": self._max_queued_per_tenant,
                    "max_queued_shots": self._max_queued_shots,
                },
                "retry_after_hint": self._retry_after_hint(),
                "breakers": {
                    name: breaker.snapshot()
                    for name, breaker in sorted(self._breakers.items())
                },
            }

    def _cancel(self, job: RuntimeJob) -> bool:
        with self._wake:
            if job._state in ("SUBMITTED", "QUEUED"):
                removed = self._scheduler.remove(job.job_id)
                if removed:
                    self._release_queued(job)
                    self._submit_stamps.pop(job.job_id, None)
                    self._persist_state(job, "CANCELLED")
                    self._completed.inc(labels={
                        "tenant": job.tenant, "state": "CANCELLED",
                    })
                    job._finish(state="CANCELLED")
                    self._sync_depth(job.tenant)
                return removed
        if job._provider_job is not None:
            cancelled = job._provider_job.cancel()
            if cancelled:
                job._set_state("CANCELLED")
            return cancelled
        return False
