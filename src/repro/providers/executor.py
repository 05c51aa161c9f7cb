"""Experiment scheduling: the middle stage of the execution pipeline.

``BaseBackend.run`` snapshots each circuit and hands the ``(circuit,
config)`` payloads to a :class:`Dispatch`, which runs them on one of
three executors:

* ``"serial"`` (the default; ``"auto"`` and None mean the same) —
  in-process, one payload at a time, in the thread that collects.
  Execution is deferred until the job's result is first requested, so
  the :class:`~repro.providers.backend.Job` lifecycle (INITIALIZING ->
  RUNNING -> DONE/ERROR) is observable and ``cancel()`` works before
  execution starts.
* ``"threads"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Helps when the experiments spend their time in large numpy operations
  that release the GIL.
* ``"processes"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Workers rebuild the backend from its provider spec; the payload
  itself, circuit and config, is pickled across the process boundary.

The pools are opt-in: on 1–2 core hosts they lose to serial (pool
start-up and payload pickling cost more than they save), so nothing
picks them automatically.

Determinism: per-experiment seeds are derived from the batch seed at
submission, before scheduling, so all three executors produce bit-identical
:class:`~repro.providers.result.Result` payloads for a seeded batch —
*including* batches with retried experiments, because a retry re-runs the
experiment with its original derived seed.

Fault tolerance (see :mod:`repro.providers.retry` and
:mod:`repro.providers.faults`):

* a :class:`~repro.providers.retry.RetryPolicy` is applied per experiment
  inside :func:`run_assembled_experiment`, the common worker path of all
  three executors, so transient failures re-run only the affected
  experiment;
* a broken process pool (worker crash) has one fallback rung: its
  unfinished payloads re-run on a thread pool, and the batch finishes
  instead of erroring;
* exhausted retries mark only that experiment failed; the batch stays
  collectable as a partial :class:`~repro.providers.result.Result`;
* every dispatch keeps a ``fallbacks`` ledger, surfaced with the
  per-experiment attempt counts as ``job.fault_stats``.

Failure isolation: a worker never raises.  An experiment that fails is
returned as an ERROR :class:`~repro.providers.result.ExperimentResult`
carrying the exception text; the other experiments in the batch are
unaffected.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import wait as _futures_wait

from repro.exceptions import (
    BackendError,
    CorruptedResultError,
    JobTimeoutError,
)

#: Options consumed by the scheduling layer itself (the rest of
#: ``RUN_OPTIONS`` is forwarded to the simulator engines).
SCHEDULING_OPTIONS = (
    "executor", "max_workers", "job_trace", "shot_chunk_size", "checkpoint",
)

#: Every option ``backend.run``/``run_pubs`` accepts.
RUN_OPTIONS = SCHEDULING_OPTIONS + (
    "shots", "seed", "memory", "noise_model", "retry_policy",
    "fault_injector",
)


def check_run_options(options, extra=(), backend=None) -> None:
    """Refuse any option outside ``RUN_OPTIONS`` (and ``extra``), naming
    it — nothing would read it, so a misspelt one would silently run with
    its default — a ``shots`` that is not an integer of at least 1, and,
    given the ``backend``, one above its ``max_shots``.
    """
    unknown = sorted(set(options).difference(RUN_OPTIONS, extra))
    if unknown:
        raise BackendError(f"unknown run option(s): {', '.join(unknown)}")
    if "shots" in options:
        shots = options["shots"]
        if isinstance(shots, bool) or not hasattr(shots, "__index__"):
            raise BackendError(
                f"shots must be an integer, not {type(shots).__name__}"
            )
        if shots < 1:
            raise BackendError(f"shots must be at least 1, not {shots}")
    if backend is not None:
        shots = options.get("shots", 1024)
        max_shots = backend.configuration().max_shots
        if shots > max_shots:
            raise BackendError(
                f"shots {shots} exceeds backend maximum {max_shots}"
            )


#: Seconds one wait on pool futures may block before the collection loop
#: looks again for futures cancelled from another thread.
_POLL_S = 0.05


class JobStatus:
    """String constants for the :class:`Job` state machine.

    ``INCOMPLETE`` is a per-experiment status only: it marks placeholder
    entries in a partial result for experiments that had not finished
    when the deadline hit.  ``SUBMITTED`` and ``QUEUED`` are
    service-level states used by :mod:`repro.runtime`: a job accepted by
    the service is SUBMITTED (persisted, not yet schedulable), then
    QUEUED (waiting for the fair-share scheduler to pick it), and only
    becomes a live provider dispatch — INITIALIZING/RUNNING — once a
    service worker launches it.
    """

    SUBMITTED = "SUBMITTED"
    QUEUED = "QUEUED"
    INITIALIZING = "INITIALIZING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    ERROR = "ERROR"
    CANCELLED = "CANCELLED"
    INCOMPLETE = "INCOMPLETE"


def resolve_executor(requested) -> str:
    """The executor kind for an ``executor`` run option.

    ``"serial"``, ``"threads"`` and ``"processes"`` stand; None and
    ``"auto"`` mean ``"serial"``.  Anything else raises
    :class:`BackendError`.
    """
    if requested is None or requested == "auto":
        return "serial"
    if requested not in ("serial", "threads", "processes"):
        raise BackendError(
            f"unknown executor '{requested}'; choose serial, threads, "
            "processes, or auto"
        )
    return requested


def resolve_backend(spec):
    """Rebuild a backend instance from its ``(provider, name)`` spec.

    This is the process-worker side of backend transport: instead of
    pickling backend objects (engines may hold caches), workers recreate
    them from the provider registries.
    """
    provider, name = spec
    if provider == "aer":
        from repro.providers.aer import Aer

        return Aer.get_backend(name)
    if provider == "ibmq":
        from repro.providers.fake import IBMQ

        return IBMQ.get_backend(name)
    raise BackendError(f"unknown backend provider '{provider}'")


def validate_outcome(outcome) -> None:
    """Cheap payload-consistency checks; raises CorruptedResultError.

    A counts histogram must sum to the shots the engine reports, and a
    per-shot memory list must have one entry per shot.  This is what
    turns a corrupted-payload fault into a *retryable* failure instead of
    silently skewed statistics.
    """
    data = outcome.data if isinstance(outcome.data, dict) else {}
    if "counts" in data and outcome.shots:
        total = sum(data["counts"].values())
        if total != outcome.shots:
            raise CorruptedResultError(
                f"counts for '{outcome.circuit_name}' sum to {total}, "
                f"expected {outcome.shots} shots"
            )
    if "broadcast_counts" in data and outcome.shots:
        for index, entry in enumerate(data["broadcast_counts"]):
            expected = entry.get("shots", outcome.shots)
            total = sum(entry.get("counts", {}).values())
            if total != expected:
                raise CorruptedResultError(
                    f"broadcast counts[{index}] for "
                    f"'{outcome.circuit_name}' sum to {total}, expected "
                    f"{expected} shots"
                )
    if "memory" in data and outcome.shots:
        if len(data["memory"]) != outcome.shots:
            raise CorruptedResultError(
                f"memory for '{outcome.circuit_name}' has "
                f"{len(data['memory'])} entries, expected "
                f"{outcome.shots} shots"
            )


def run_assembled_experiment(backend, circuit, config: dict):
    """Run one payload with per-experiment retry; never raises.

    The backend's ``_run_experiment`` hook simulates the payload's circuit
    — the snapshot taken at submission, the same object on every attempt
    — under its config.  A failure classified as transient by the config's
    :class:`~repro.providers.retry.RetryPolicy` re-runs the experiment —
    with its original derived seed, so a successful retry is bit-identical
    to a fault-free run.  Non-transient errors, and transient ones that
    exhaust the retry budget, are captured into an ERROR result with zero
    fan-out to siblings.
    """
    from repro.providers.faults import FaultInjector
    from repro.providers.result import ExperimentResult
    from repro.providers.retry import resolve_retry_policy

    name = circuit.name
    policy = resolve_retry_policy(config.get("retry_policy"))
    injector = config.get("fault_injector")
    if injector is not None and not isinstance(injector, FaultInjector):
        raise BackendError("fault_injector must be a FaultInjector")
    recorder = None
    if "span_context" in config:
        # Telemetry is opt-in per job: the submitting process injects a
        # span context only when tracing is enabled, so the disabled path
        # costs one dict lookup and allocates nothing.
        from repro.telemetry.jobtrace import ExperimentRecorder

        recorder = ExperimentRecorder(config["span_context"])
    seed = config.get("seed")
    chunk_info = config.get("shot_chunk")
    chunk_index = chunk_info["index"] if chunk_info else None
    start = time.perf_counter()
    attempts = 0
    backoff_total = 0.0
    fault_log: list = []
    while True:
        attempt = attempts
        attempts += 1
        attempt_span = (
            recorder.start_attempt(attempt) if recorder is not None else None
        )
        try:
            if injector is not None:
                injector.before_attempt(name, attempt, fault_log,
                                        chunk=chunk_index)
            outcome = backend._run_experiment(circuit, config)
            if injector is not None:
                injector.after_attempt(name, attempt, outcome, fault_log,
                                       chunk=chunk_index)
            validate_outcome(outcome)
            if recorder is not None:
                recorder.end_attempt(attempt_span)
            break
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            if recorder is not None:
                recorder.end_attempt(attempt_span, error=exc)
            if policy.retryable(exc) and attempts < policy.max_attempts:
                wait = policy.backoff(attempt, seed=seed)
                if wait > 0:
                    backoff_total += wait
                    if recorder is not None:
                        recorder.record_backoff(wait)
                    time.sleep(wait)
                continue
            outcome = ExperimentResult(
                name,
                config.get("shots", 0),
                {},
                status=JobStatus.ERROR,
                error=f"{type(exc).__name__}: {exc}",
            )
            break
    outcome.time_taken = time.perf_counter() - start
    outcome.seed = seed
    outcome.attempts = attempts
    outcome.backoff_total = backoff_total
    outcome.faults = fault_log
    if chunk_info is not None:
        outcome.chunk = dict(chunk_info)
    if recorder is not None:
        outcome.spans = recorder.finish(outcome)
    checkpoint = config.get("checkpoint")
    if checkpoint is not None and outcome.status == JobStatus.DONE:
        from repro.providers.checkpoint import append_chunk

        try:
            append_chunk(
                checkpoint["path"], checkpoint["job_id"],
                checkpoint["experiment"], checkpoint["chunk"], outcome,
            )
        except Exception as exc:  # noqa: BLE001 — a full disk must not
            # fail the experiment; the unit simply re-runs on resume.
            fault_log.append(f"checkpoint-error:{type(exc).__name__}")
    return outcome


def _process_worker(spec, circuit, config):
    """Top-level (hence picklable) entry point for process-pool workers."""
    return run_assembled_experiment(resolve_backend(spec), circuit, config)


def _placeholder(name, status: str, message: str):
    """An ExperimentResult stand-in for a payload that never produced one."""
    from repro.providers.result import ExperimentResult

    return ExperimentResult(name, 0, {}, status=status, error=message,
                            attempts=0)


class Dispatch:
    """A batch of ``(circuit, config)`` payloads on one executor.

    The dispatch runs every unit of a job's plan, and :attr:`_outcomes`
    is the one table of its finished units: the ``finished`` outcomes
    passed at construction (chunks a checkpoint restored) are in it from
    the start, and the rest land as they run.  A unit's payload is
    dropped when its outcome lands, so a finished job keeps outcomes,
    not circuits.  One collection loop, :meth:`_drain`, serves
    :meth:`collect`, :meth:`iter_outcomes` and the gather after a
    :meth:`cancel`.  Serial payloads run inside that loop, in the
    collecting thread, from the first collect on; pools submit the
    missing payloads at construction and await them in completion order.
    A process pool that breaks mid-batch (a crashed worker, most
    commonly) re-submits its unfinished payloads to a thread pool once —
    recorded in :attr:`fallbacks` as ``"processes->threads"`` — and the
    batch completes; a thread pool built without an initializer cannot
    break.
    """

    def __init__(self, backend, payloads, kind, max_workers=None,
                 job_trace=None, finished=None):
        if kind == "processes" and backend._backend_spec() is None:
            # No provider registry entry to rebuild the backend from in a
            # worker process; threads share the instance instead.
            kind = "threads"
            if job_trace is not None:
                job_trace.set_executor(kind)
        #: The executor kind that runs this dispatch.
        self.kind = kind
        #: Fallbacks taken; ``["processes->threads"]`` after a pool broke.
        self.fallbacks: list = []
        self._backend = backend
        self._names = [circuit.name for circuit, _config in payloads]
        self._job_trace = job_trace
        #: index -> outcome: the finished units, restored ones from the
        #: start, so repeated or partial collects never re-run them.
        self._outcomes: dict = dict(finished or {})
        #: index -> payload of every unit not finished yet, in batch
        #: order; a unit's payload goes when its outcome lands.
        self._pending: dict = {
            index: payload for index, payload in enumerate(payloads)
            if index not in self._outcomes
        }
        #: index -> future (pool executors only).
        self._futures: dict = {}
        self._pool = None
        self._cancelled = False
        self._started = kind != "serial"
        if kind == "serial" or not self._pending:
            return
        self._workers = max(
            1, max_workers or min(len(self._pending), os.cpu_count() or 1)
        )
        if kind == "processes":
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
            self._call = (_process_worker, backend._backend_spec())
        else:
            self._pool = ThreadPoolExecutor(max_workers=self._workers)
            self._call = (run_assembled_experiment, backend)
        for index in self._pending:
            self._submit(index)

    def _submit(self, index: int) -> None:
        function, target = self._call
        self._futures[index] = self._pool.submit(
            function, target, *self._pending[index]
        )

    def _fall_back(self, index: int) -> None:
        """Re-submit one payload of the broken process pool to threads.

        The first broken payload swaps in the thread pool and records the
        one fallback rung; the pool's other unfinished payloads follow as
        the collection loop meets them.
        """
        if not self.fallbacks:
            self.fallbacks.append("processes->threads")
            if self._job_trace is not None:
                self._job_trace.record_fallback("processes->threads")
            self._pool.shutdown(wait=True)
            self._pool = ThreadPoolExecutor(max_workers=self._workers)
            self._call = (run_assembled_experiment, self._backend)
        self._submit(index)

    def status(self) -> str:
        """INITIALIZING (serial, before the first collect), RUNNING,
        DONE once every payload has finished, or CANCELLED."""
        if self._cancelled:
            return JobStatus.CANCELLED
        if len(self._outcomes) == len(self._names) or (
            self._futures
            and all(future.done() for future in self._futures.values())
        ):
            return JobStatus.DONE
        return JobStatus.RUNNING if self._started else JobStatus.INITIALIZING

    def cancel(self) -> bool:
        """Stop the payloads that have not started; True if any were.

        Idempotent: the dispatch becomes CANCELLED exactly once, and a
        second ``cancel()`` returns False.  Serial payloads check the flag
        between payloads, so the one in flight finishes; pool payloads
        already running (which a pool cannot interrupt) finish too.  Both
        keep their outcomes — ``collect(partial=True)`` returns them
        alongside CANCELLED placeholders for the prevented ones.
        """
        if self._cancelled or len(self._outcomes) == len(self._names):
            return False
        if self._futures:
            # A list, not a generator: every queued future must be asked.
            if not any([future.cancel()
                        for future in self._futures.values()]):
                return False
            self._pool.shutdown(wait=False)
        self._cancelled = True
        return True

    def finished_outcomes(self) -> list:
        """Snapshot of the outcomes completed so far (non-blocking)."""
        finished = dict(self._outcomes)
        for index, future in self._futures.items():
            if index not in finished and future.done() \
                    and not future.cancelled() and future.exception() is None:
                finished[index] = future.result()
        return [finished[index] for index in sorted(finished)]

    def _drain(self, deadline):
        """The collection loop: yield ``(index, outcome)`` as payloads
        finish.

        Serial payloads run here in batch order; the cancel flag and the
        cooperative ``deadline`` (a ``time.monotonic`` value, or None) are
        checked between payloads, since a running experiment cannot be
        interrupted in-process.  Pool futures are awaited in completion
        order, cancelled ones skipped, until none is pending or the
        deadline passes.  Every outcome lands in ``self._outcomes`` before
        it is yielded, so an abandoned drain loses nothing and the next
        one picks up where it stopped.
        """
        if self._pool is None:
            self._started = True
            for index, (circuit, config) in list(self._pending.items()):
                if index in self._outcomes:
                    continue
                if self._cancelled or (
                    deadline is not None and time.monotonic() >= deadline
                ):
                    return
                outcome = run_assembled_experiment(self._backend, circuit,
                                                   config)
                self._outcomes[index] = outcome
                self._pending.pop(index, None)
                yield index, outcome
            return
        while True:
            pending = {
                future: index for index, future in self._futures.items()
                if index not in self._outcomes and not future.cancelled()
            }
            if not pending:
                # Everything has resolved, so this reaps workers at once;
                # a lazy shutdown would leave process pools to atexit.
                self._pool.shutdown(wait=True)
                return
            # Poll: a cancel() from another thread never wakes the wait.
            timeout = _POLL_S if deadline is None else min(
                _POLL_S, max(0.0, deadline - time.monotonic())
            )
            done, _ = _futures_wait(pending, timeout=timeout,
                                    return_when=FIRST_COMPLETED)
            if not done and deadline is not None \
                    and time.monotonic() >= deadline:
                return
            for future in sorted(done, key=pending.get):
                index = pending[future]
                if future.cancelled():
                    continue
                try:
                    outcome = future.result()
                except BrokenExecutor:
                    self._fall_back(index)
                    continue
                except Exception as exc:  # unpicklable payload and kin
                    outcome = _placeholder(
                        self._names[index], JobStatus.ERROR,
                        f"{type(exc).__name__}: {exc}",
                    )
                self._outcomes[index] = outcome
                self._pending.pop(index, None)
                yield index, outcome

    def iter_outcomes(self):
        """Yield ``(index, outcome)`` for every payload as it finishes.

        The streaming twin of :meth:`collect`: outcomes finished earlier
        (restored units included) come first, in batch order, then the
        rest as they finish — in batch order on the
        serial executor, in completion order on a pool, so the chunks of
        one experiment surface the moment their worker is done.
        Abandoning the iterator keeps the finished outcomes, and a later
        ``collect`` (or a fresh iteration) resumes from there.  A
        ``cancel()`` ends the iteration once the payloads in flight have
        finished.
        """
        for index in sorted(self._outcomes):
            yield index, self._outcomes[index]
        yield from self._drain(None)

    def collect(self, timeout=None, partial=False) -> list:
        """Await and return the outcomes of every unit, in batch order.

        ``timeout`` bounds the whole collection; hitting it raises
        :class:`JobTimeoutError` on every executor and leaves the
        unfinished work for a later ``collect`` — or, with
        ``partial=True``, returns the finished outcomes plus INCOMPLETE
        placeholders instead of raising.  After a cancel this raises
        :class:`BackendError` unless ``partial=True``, which waits (up to
        the deadline) for the payloads that were in flight and returns
        CANCELLED placeholders for the prevented ones.
        """
        total = len(self._names)
        if len(self._outcomes) < total:
            if self._cancelled and not partial:
                raise BackendError("job was cancelled")
            deadline = None if timeout is None else time.monotonic() + timeout
            for _ in self._drain(deadline):
                pass
        if len(self._outcomes) == total:
            return [self._outcomes[index] for index in range(total)]
        if self._cancelled and not partial:
            raise BackendError("job was cancelled")
        if not partial:
            raise JobTimeoutError(
                f"job timed out after {timeout}s "
                f"({len(self._outcomes)}/{total} experiments finished)"
            )
        outcomes = []
        for index in range(total):
            future = self._futures.get(index)
            if index in self._outcomes:
                outcomes.append(self._outcomes[index])
            elif self._cancelled and (future is None or future.cancelled()):
                outcomes.append(_placeholder(
                    self._names[index], JobStatus.CANCELLED,
                    "job was cancelled",
                ))
            else:
                outcomes.append(_placeholder(
                    self._names[index], JobStatus.INCOMPLETE,
                    f"not finished within {timeout}s",
                ))
        return outcomes
