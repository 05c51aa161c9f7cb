"""The durable job store behind the runtime service.

A store directory holds one :class:`~repro.providers.journal.Journal`,
``jobs.jsonl`` (with its ``jobs.jsonl.lock``), however many jobs run.
Its record types:

- ``job`` — written at submission and again by every requeue, through
  the checkpoint module's one writer
  (:func:`~repro.providers.checkpoint.job_line`): job id, backend
  ``(provider, name)`` spec, payload kind (``circuits`` or ``pubs``),
  the base64-pickled ``(payload, options)`` pair, and the store's own
  fields — tenant, priority, session id, submission time and optional
  wall-clock deadline.  It is everything needed to run the job again in
  a fresh process, and the start of a circuits job's checkpoint;
- ``state`` — one per lifecycle transition (``SUBMITTED -> QUEUED ->
  RUNNING -> DONE/ERROR/CANCELLED/EXPIRED/QUARANTINED``); the last one
  wins.  A ``QUEUED`` record may carry the service-level ``attempt``
  counter behind the dead-letter policy, and an ``ERROR`` record the
  ``error`` text of a job that can never run (its journaled payload
  does not decode);
- ``result`` — a finished job's pickled
  :class:`~repro.providers.result.Result` plus plain-JSON summary
  fields; the one place a finished result lives;
- ``quarantine`` — a dead-lettered job's plain-JSON fault ledger
  (``job.fault_stats``) and final error text, readable without
  unpickling anything;
- ``chunk`` — one per finished unit of a circuits job
  (:mod:`repro.providers.checkpoint`), keyed by job id; workers append
  them from pool processes too;
- ``job_ids`` — written only by compaction, at the head of the
  compacted journal, when the jobs it pruned held larger ids than any
  it kept: the next ``rt-<N>`` number.

A circuits job's checkpoint is therefore its latest ``job`` record plus
the DONE ``chunk`` records after it; ``header`` records, which older
journals hold, are skipped.  Job ids are ``rt-<N>``, ``N`` continuing
past every id a ``job`` record (or the ``job_ids`` record) in the
journal has held, so a job that replay drops or compaction prunes never
hands its id to a later one.  :meth:`JobStore.load` replays the
journal once: a ``job`` record starts its job afresh (only the
quarantine record carries over, for the audit trail) and starts a fresh
checkpoint, so a requeued job never resumes a poisoned one; a
non-terminal job keeps its chunk records undecoded until the service
resumes it.  A pending job whose payload does not decode replays as
ERROR with no payload (a terminal one keeps its state); the service's
recovery journals that ERROR once, so compaction and retention see a
finished job.  :meth:`JobStore.compact` rewrites the journal as a
last-state-wins snapshot that keeps chunk records only for non-terminal
jobs, and a :class:`RetentionPolicy` prunes terminal jobs (by age
and/or count) during compaction — never pending ones.  Compaction
statistics land in the unified metrics registry
(``repro_runtime_compaction_*``).
"""

from __future__ import annotations

import os
import threading
import time

from repro.exceptions import BackendError
from repro.providers import checkpoint
from repro.providers.journal import Journal, decode, encode

#: Lifecycle states a ``state`` record may carry.
JOB_STATES = ("SUBMITTED", "QUEUED", "RUNNING", "DONE", "ERROR",
              "CANCELLED", "EXPIRED", "QUARANTINED")

#: States from which a job never transitions again (``QUARANTINED`` is
#: terminal for the scheduler but revivable through ``requeue``).
TERMINAL_STATES = ("DONE", "ERROR", "CANCELLED", "EXPIRED", "QUARANTINED")

#: States :meth:`JobStore.requeue` revives a job from.
REQUEUEABLE_STATES = ("QUARANTINED", "ERROR", "CANCELLED", "EXPIRED")


class RetentionPolicy:
    """What :meth:`JobStore.compact` may prune.

    * ``max_age`` — terminal jobs submitted more than this many seconds
      ago are dropped (None = no age limit);
    * ``max_terminal_jobs`` — keep at most this many terminal jobs, the
      newest by job id (None = unlimited).

    Non-terminal jobs (queued, running) are never pruned — retention
    can shrink history, never lose pending work.
    """

    def __init__(self, max_age: float = None, max_terminal_jobs: int = None):
        if max_age is not None and max_age < 0:
            raise BackendError("retention max_age must be non-negative")
        if max_terminal_jobs is not None and max_terminal_jobs < 0:
            raise BackendError(
                "retention max_terminal_jobs must be non-negative"
            )
        self.max_age = max_age
        self.max_terminal_jobs = max_terminal_jobs

    def __repr__(self):
        return (
            f"RetentionPolicy(max_age={self.max_age}, "
            f"max_terminal_jobs={self.max_terminal_jobs})"
        )


class JobRecord:
    """One job's durable state, assembled from its journal records."""

    __slots__ = ("job_id", "tenant", "backend_spec", "priority", "session",
                 "kind", "payload", "options", "state", "result",
                 "submitted_at", "deadline", "attempts", "quarantine",
                 "error", "checkpoint", "lines")

    def __init__(self, job_id, tenant, backend_spec, priority, session,
                 kind, payload, options, submitted_at=None, deadline=None):
        self.job_id = job_id
        self.tenant = tenant
        self.backend_spec = tuple(backend_spec)
        self.priority = int(priority)
        self.session = session
        self.kind = kind
        self.payload = payload
        self.options = options
        self.state = "SUBMITTED"
        self.result = None
        self.submitted_at = submitted_at
        #: Absolute wall-clock expiry (``time.time`` scale), or None.
        self.deadline = deadline
        #: Service-level attempt counter (dead-letter policy input).
        self.attempts = 0
        #: The plain-JSON quarantine record (fault ledger + error text).
        self.quarantine = None
        #: Why the job can never run (its latest state record's text).
        self.error = None
        #: A non-terminal job's undecoded ``(job, chunks)`` checkpoint
        #: records, as :func:`repro.providers.checkpoint.replay` holds
        #: them, or None when it has no DONE chunk.
        self.checkpoint = None
        #: Compaction only: the job's latest ``job`` and ``result``
        #: journal records as read, keyed by type.
        self.lines = None

    def __repr__(self):
        return (
            f"JobRecord({self.job_id}, tenant={self.tenant!r}, "
            f"state={self.state})"
        )


def _job_line(record: JobRecord, blob: str = None) -> dict:
    """The ``job`` record: everything needed to re-run the job (``blob``:
    the pair already encoded, if the caller has it)."""
    return checkpoint.job_line(
        record.job_id, record.backend_spec,
        blob or encode((record.payload, record.options)),
        tenant=record.tenant, priority=record.priority,
        session=record.session, kind=record.kind,
        submitted_at=record.submitted_at, deadline=record.deadline,
    )


def _state_line(job_id: str, state: str, attempt: int = None,
                error: str = None) -> dict:
    """A ``state`` record (``attempt`` and ``error`` only when given)."""
    line = {"type": "state", "job_id": job_id, "state": state}
    if attempt is not None:
        line["attempt"] = int(attempt)
    if error is not None:
        line["error"] = error
    return line


def _result_line(job_id: str, result) -> dict:
    """A ``result`` record: the pickled Result plus plain-JSON summary."""
    return {
        "type": "result",
        "job_id": job_id,
        "success": bool(result.success),
        "experiments": len(result.results),
        "result": encode(result),
    }


def _quarantine_line(job_id: str, fault_stats: dict, error: str) -> dict:
    """A ``quarantine`` record: the plain-JSON fault ledger and error."""
    return {
        "type": "quarantine",
        "job_id": job_id,
        "fault_stats": fault_stats,
        "error": error,
    }


class JobStore:
    """The runtime service's journal of jobs and their checkpoints.

    Every write is one :meth:`~repro.providers.journal.Journal.append`,
    so a service crash can at worst tear the final line, which replay
    skips; the journal's ``flock`` coordinates appends with compactions
    in this and other processes.
    """

    LEDGER_NAME = "jobs.jsonl"

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, self.LEDGER_NAME)
        self._journal = Journal(self.path)
        self._lock = threading.Lock()
        #: The next ``rt-<N>`` number; found by the first :meth:`load`.
        self._next_id = None

    # -- writes ----------------------------------------------------------

    def next_job_id(self) -> str:
        """Allocate the next ``rt-<N>`` id (monotone across restarts)."""
        if self._next_id is None:
            self.load()
        with self._lock:
            job_id = f"rt-{self._next_id}"
            self._next_id += 1
            return job_id

    def append_job(self, record: JobRecord, blob: str = None) -> None:
        """Persist a new job's submission record (then its first state).

        ``blob`` is :func:`~repro.providers.journal.encode` of the
        record's ``(payload, options)`` when the caller already made it.
        """
        self._journal.append(_job_line(record, blob))

    def append_state(self, job_id: str, state: str,
                     attempt: int = None, error: str = None) -> None:
        """Persist a lifecycle transition.

        ``attempt`` rides QUEUED records when the service re-queues a
        failed job: replay restores the service-level attempt counter,
        so a restart cannot reset a poison job's dead-letter budget.
        ``error`` rides the ERROR record of a job that can never run.
        """
        if state not in JOB_STATES:
            raise BackendError(f"unknown job state '{state}'")
        self._journal.append(_state_line(job_id, state, attempt, error))

    def append_result(self, job_id: str, result) -> None:
        """Persist a completed job's :class:`Result`."""
        self._journal.append(_result_line(job_id, result))

    def append_quarantine(self, job_id: str, fault_stats: dict,
                          error: str = None) -> None:
        """Persist a dead-lettered job's fault ledger (plain JSON)."""
        self._journal.append(_quarantine_line(job_id, fault_stats, error))

    def requeue(self, record: JobRecord, options: dict = None) -> None:
        """Revive a terminal job as a fresh run, ``options`` overriding
        its run options.

        One append writes a fresh ``job`` record — replay then drops the
        failed attempt's checkpoint, so a poisoned one is never resumed,
        and re-runs the corrected options — and a ``QUEUED`` state with
        ``attempt=0``, a fresh dead-letter budget.
        """
        if record.state not in REQUEUEABLE_STATES:
            raise BackendError(
                f"job {record.job_id} is {record.state}; only "
                f"{'/'.join(REQUEUEABLE_STATES)} jobs can be requeued"
            )
        if record.payload is None:
            raise BackendError(
                f"job {record.job_id} cannot be requeued: its journaled "
                "payload does not decode"
            )
        if options:
            record.options = dict(record.options, **options)
        record.attempts = 0
        record.checkpoint = None
        self._journal.append(_job_line(record),
                             _state_line(record.job_id, "QUEUED", 0))

    # -- reads -----------------------------------------------------------

    def load(self) -> dict:
        """Replay the journal into ``{job_id: JobRecord}``.

        Only jobs that can run again (pending or requeueable ones) have
        their payload and options decoded; a DONE job keeps ``payload``
        and ``options`` None, as a live one drops its payload.  A job
        that could run again but whose payload cannot be decoded comes
        back with ``payload`` None and no checkpoint: a pending one as
        ERROR, a terminal one in its own state (``requeue`` refuses both).
        """
        records, next_id = self._replay(self._journal.replay())
        with self._lock:
            self._next_id = max(self._next_id or 0, next_id)
        return records

    @staticmethod
    def _replay(entries, raw=False):
        """Apply journal records in order; returns ``({job_id:
        JobRecord}, next_id)``, ``next_id`` being one past the largest
        job number any ``job`` record held (dropped jobs included) or
        the ``job_ids`` record gives.

        Payloads are decoded after the last record, for every job no
        DONE state has reached since its latest ``job`` record.
        ``raw=True`` (compaction) unpickles nothing: payloads and results
        stay None, and each record's ``lines`` holds its latest ``job``
        and ``result`` records as read.
        """
        records: dict = {}
        checkpoints: dict = {}
        blobs: dict = {}  # job id -> its latest undecoded payload
        next_id = 0
        for entry in entries:
            checkpoint.replay(checkpoints, entry)
            kind = entry.get("type")
            job_id = entry.get("job_id")
            if kind == "job_ids":
                next_id = max(next_id, int(entry["next"]))
            elif kind == "job":
                next_id = max(next_id, JobStore._job_number(job_id) + 1)
                record = JobRecord(
                    job_id, entry.get("tenant", "default"), entry["backend"],
                    entry.get("priority", 0), entry.get("session"),
                    entry.get("kind", "circuits"), None, None,
                    submitted_at=entry.get("submitted_at"),
                    deadline=entry.get("deadline"),
                )
                if raw:
                    record.lines = {"job": entry}
                else:
                    blobs[job_id] = entry["payload"]
                if job_id in records:  # a requeue keeps the audit trail
                    record.quarantine = records[job_id].quarantine
                records[job_id] = record
            elif kind == "state" and job_id in records:
                state = entry.get("state")
                if state in JOB_STATES:
                    records[job_id].state = state
                    records[job_id].error = entry.get("error")
                    if entry.get("attempt") is not None:
                        records[job_id].attempts = int(entry["attempt"])
                if state in TERMINAL_STATES:
                    # A finished job is never resumed: drop its records
                    # now, so replay holds only pending checkpoints.
                    checkpoints.pop(job_id, None)
                if state == "DONE":
                    # Nor does a DONE job run again (requeue refuses
                    # it), so its payload is never decoded.
                    blobs.pop(job_id, None)
            elif kind == "result" and job_id in records:
                if raw:
                    records[job_id].lines["result"] = entry
                    continue
                try:
                    records[job_id].result = decode(entry["result"])
                except Exception:  # noqa: BLE001
                    continue
            elif kind == "quarantine" and job_id in records:
                records[job_id].quarantine = {
                    "fault_stats": entry.get("fault_stats") or {},
                    "error": entry.get("error"),
                }
        for job_id, blob in blobs.items():
            record = records[job_id]
            try:
                record.payload, record.options = decode(blob)
            except Exception:  # noqa: BLE001 — torn/corrupt blob
                checkpoints.pop(job_id, None)
                if record.state not in TERMINAL_STATES:
                    record.state = "ERROR"  # it can never run again
        for job_id, record in records.items():
            held = checkpoints.get(job_id)
            # A checkpoint without chunks has nothing to resume from.
            record.checkpoint = held if held is not None and held[1] else None
        return records, next_id

    # -- compaction and retention ----------------------------------------

    @staticmethod
    def _job_number(job_id: str) -> int:
        try:
            return int(job_id.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    def _pruned(self, records: dict, retention: RetentionPolicy,
                now: float) -> list:
        """Job ids retention drops (terminal jobs only)."""
        if retention is None:
            return []
        terminal = [
            record for record in records.values()
            if record.state in TERMINAL_STATES
        ]
        dropped = set()
        if retention.max_age is not None:
            for record in terminal:
                submitted = record.submitted_at
                if submitted is not None and \
                        now - submitted > retention.max_age:
                    dropped.add(record.job_id)
        if retention.max_terminal_jobs is not None:
            survivors = sorted(
                (r for r in terminal if r.job_id not in dropped),
                key=lambda r: self._job_number(r.job_id),
                reverse=True,
            )
            for record in survivors[retention.max_terminal_jobs:]:
                dropped.add(record.job_id)
        return sorted(dropped, key=self._job_number)

    @staticmethod
    def _snapshot_lines(record: JobRecord) -> list:
        """The minimal record sequence reproducing one job on replay
        (``record`` from a raw replay: its job and result records are
        copied, not re-pickled)."""
        lines = [
            record.lines["job"],
            _state_line(record.job_id, record.state,
                        record.attempts or None, record.error),
        ]
        if "result" in record.lines:
            lines.append(record.lines["result"])
        if record.quarantine is not None:
            lines.append(_quarantine_line(
                record.job_id, record.quarantine["fault_stats"],
                record.quarantine["error"],
            ))
        if record.checkpoint is not None:
            lines.extend(record.checkpoint[1].values())
        return lines

    def compact(self, retention: RetentionPolicy = None,
                now: float = None) -> dict:
        """Rewrite the journal to a last-state-wins snapshot; returns
        stats.

        Each surviving job's latest ``job`` and ``result`` records are
        copied as read: nothing is unpickled or pickled again while the
        journal's exclusive lock holds every appender off.
        ``retention`` prunes terminal jobs; ``now`` overrides the
        wall-clock reference for the ``max_age`` cut (tests).  Stats —
        ``records_in/out``, ``bytes_in/out``, ``jobs_kept``,
        ``jobs_pruned`` — are returned and mirrored as
        ``repro_runtime_compaction_*`` gauges plus a
        ``repro_runtime_compactions_total`` counter in the unified
        metrics registry.
        """
        from repro.telemetry.metrics import get_metrics_registry

        now = time.time() if now is None else now
        jobs = {}

        def snapshot(entries):
            records, next_id = self._replay(entries, raw=True)
            dropped = self._pruned(records, retention, now)
            for job_id in dropped:
                del records[job_id]
            jobs.update(jobs_kept=len(records), jobs_pruned=len(dropped))
            lines = [
                line for job_id in sorted(records, key=self._job_number)
                for line in self._snapshot_lines(records[job_id])
            ]
            if next_id > max(map(self._job_number, records), default=-1) + 1:
                # The pruned jobs held the largest ids; keep their mark.
                lines.insert(0, {"type": "job_ids", "next": next_id})
            return lines

        stats = self._journal.compact(snapshot)
        stats.update(jobs)
        registry = get_metrics_registry()
        registry.counter(
            "repro_runtime_compactions_total",
            "Ledger compactions performed",
        ).inc()
        for key, value in stats.items():
            registry.gauge(
                f"repro_runtime_compaction_{key}",
                f"Last compaction: {key.replace('_', ' ')}",
            ).set(value)
        return stats
