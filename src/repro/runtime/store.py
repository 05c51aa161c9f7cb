"""The durable job store behind the runtime service.

One directory holds everything a service instance needs to survive a
process death:

* ``jobs.jsonl`` — the job ledger, in the same JSON-lines idiom as the
  chunk checkpoint ledger (:mod:`repro.providers.checkpoint`): one JSON
  object per line, appended atomically through a single ``os.write`` on
  an ``O_APPEND`` descriptor, torn trailing lines ignored on load.
  Four record types:

  - ``job`` — written once at submission: job id, tenant, backend
    ``(provider, name)`` spec, priority, session id, payload kind
    (``circuits`` or ``pubs``), optional wall-clock deadline, and the
    base64-pickled ``(payload, options)`` pair — everything needed to
    re-run the job in a fresh process;
  - ``state`` — one per lifecycle transition
    (``SUBMITTED -> QUEUED -> RUNNING -> DONE/ERROR/CANCELLED/EXPIRED/
    QUARANTINED``); the *last* state record for a job id wins on load.
    A ``QUEUED`` record may carry an ``attempt`` field — the
    service-level attempt counter behind the dead-letter policy;
  - ``result`` — written when the job completes, carrying the base64-
    pickled :class:`~repro.providers.result.Result` plus plain-JSON
    summary fields (success flag, experiment count) for ``grep``-level
    auditing;
  - ``quarantine`` — written when a job is dead-lettered, carrying its
    plain-JSON fault ledger (``job.fault_stats``) and the final error
    text, so an operator can diagnose the poison job straight from the
    ledger without unpickling anything.

* ``<job_id>.chunks.jsonl`` — the per-job chunk checkpoint ledger the
  service passes to the execution engine as the ``checkpoint`` option;
  a job interrupted mid-run resumes from it via ``Job.resume`` with
  bit-identical merged results.

Job ids are ``rt-<N>`` with ``N`` continuing from the largest id in the
ledger, so ids stay unique across restarts.

**Compaction and retention.**  The ledger is append-only, so a
long-lived store accumulates one line per state transition forever.
:meth:`JobStore.compact` rewrites it as a last-state-wins snapshot —
one ``job`` + final ``state`` (+ ``result``/``quarantine``) per job —
built in a ``tempfile.mkstemp`` sibling and published with an atomic
``os.replace``, so a crash mid-compaction leaves either the old ledger
or the new one, never a torn hybrid.  Concurrent appenders are safe:
every append takes a *shared* ``flock`` on ``jobs.jsonl.lock`` and the
compactor takes an *exclusive* one, so no append can land between the
snapshot read and the replace (appenders reopen the path per append, so
post-replace appends go to the new inode).  An optional
:class:`RetentionPolicy` prunes terminal jobs during compaction —
``max_age`` seconds since submission and/or keep only the newest
``max_terminal_jobs`` — deleting their chunk ledgers with them;
non-terminal jobs are never pruned.  Compaction statistics land in the
unified metrics registry (``repro_runtime_compaction_*``).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time

from repro.exceptions import BackendError
from repro.providers.checkpoint import (
    _append_line,
    _decode,
    _encode,
    _read_records,
)

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX fallback
    fcntl = None

#: Store schema version, bumped on incompatible record changes.
STORE_VERSION = 1

#: Lifecycle states a ``state`` record may carry.
JOB_STATES = ("SUBMITTED", "QUEUED", "RUNNING", "DONE", "ERROR",
              "CANCELLED", "EXPIRED", "QUARANTINED")

#: States from which a job never transitions again (``QUARANTINED`` is
#: terminal for the scheduler but revivable through ``requeue``).
TERMINAL_STATES = ("DONE", "ERROR", "CANCELLED", "EXPIRED", "QUARANTINED")


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
    """One job's durable state, assembled from its ledger records."""

    __slots__ = ("job_id", "tenant", "backend_spec", "priority", "session",
                 "kind", "payload", "options", "state", "result",
                 "submitted_at", "deadline", "attempts", "quarantine")

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

    def __repr__(self):
        return (
            f"JobRecord({self.job_id}, tenant={self.tenant!r}, "
            f"state={self.state})"
        )


def _job_line(record: JobRecord) -> dict:
    """The ``job`` record: everything needed to re-run the job."""
    return {
        "type": "job",
        "version": STORE_VERSION,
        "job_id": record.job_id,
        "tenant": record.tenant,
        "backend": list(record.backend_spec),
        "priority": record.priority,
        "session": record.session,
        "kind": record.kind,
        "submitted_at": record.submitted_at,
        "deadline": record.deadline,
        "payload": _encode((record.payload, record.options)),
    }


def _state_line(job_id: str, state: str, attempt: int = None) -> dict:
    """A ``state`` record (``attempt`` only when given)."""
    line = {"type": "state", "job_id": job_id, "state": state}
    if attempt is not None:
        line["attempt"] = int(attempt)
    return line


def _result_line(job_id: str, result) -> dict:
    """A ``result`` record: the pickled Result plus plain-JSON summary."""
    return {
        "type": "result",
        "job_id": job_id,
        "success": bool(result.success),
        "experiments": len(result.results),
        "result": _encode(result),
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
    """Append-only JSON-lines persistence for runtime jobs.

    All appends go through :func:`~repro.providers.checkpoint._append_line`
    (single atomic ``os.write`` on ``O_APPEND``), so a service crash can
    at worst tear the final line — which :meth:`load` skips, exactly like
    the chunk ledger's reader.  An in-process lock keeps the service's
    worker threads from interleaving their own appends; a shared
    ``flock`` on the sibling lock file coordinates with compactions in
    *other* processes (see :meth:`compact`).
    """

    LEDGER_NAME = "jobs.jsonl"
    LOCK_NAME = "jobs.jsonl.lock"

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, self.LEDGER_NAME)
        self.lock_path = os.path.join(self.directory, self.LOCK_NAME)
        self._lock = threading.Lock()
        self._next_id = 0
        records = self.load()
        for job_id in records:
            try:
                number = int(job_id.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                continue
            self._next_id = max(self._next_id, number + 1)

    # -- cross-process locking -------------------------------------------

    def _flock(self, exclusive: bool):
        """An acquired ``flock`` fd on the lock file (None without
        fcntl)."""
        if fcntl is None:
            return None
        fd = os.open(self.lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        except OSError:
            os.close(fd)
            return None
        return fd

    @staticmethod
    def _unflock(fd) -> None:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _append(self, record: dict) -> None:
        """One locked append: thread lock + shared cross-process flock."""
        with self._lock:
            fd = self._flock(exclusive=False)
            try:
                _append_line(self.path, record)
            finally:
                self._unflock(fd)

    # -- writes ----------------------------------------------------------

    def next_job_id(self) -> str:
        """Allocate the next ``rt-<N>`` id (monotone across restarts)."""
        with self._lock:
            job_id = f"rt-{self._next_id}"
            self._next_id += 1
            return job_id

    def append_job(self, record: JobRecord) -> None:
        """Persist a new job's submission record (then its first state)."""
        self._append(_job_line(record))

    def append_state(self, job_id: str, state: str,
                     attempt: int = None) -> None:
        """Persist a lifecycle transition.

        ``attempt`` rides QUEUED records when the service re-queues a
        failed job: replay restores the service-level attempt counter,
        so a restart cannot reset a poison job's dead-letter budget.
        """
        if state not in JOB_STATES:
            raise BackendError(f"unknown job state '{state}'")
        self._append(_state_line(job_id, state, attempt))

    def append_result(self, job_id: str, result) -> None:
        """Persist a completed job's :class:`Result`."""
        self._append(_result_line(job_id, result))

    def append_quarantine(self, job_id: str, fault_stats: dict,
                          error: str = None) -> None:
        """Persist a dead-lettered job's fault ledger (plain JSON)."""
        self._append(_quarantine_line(job_id, fault_stats, error))

    # -- reads -----------------------------------------------------------

    def load(self) -> dict:
        """Replay the ledger into ``{job_id: JobRecord}``.

        Later records override earlier ones (last state wins); malformed
        lines — a torn append from a crash — are skipped.  Records whose
        pickled payload cannot be decoded are dropped entirely: a job the
        service cannot re-run is not recoverable.
        """
        records: dict = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                for entry in _read_records(handle):
                    self._replay(records, entry)
        return records

    @staticmethod
    def _replay(records: dict, entry: dict) -> None:
        """Apply one ledger record to ``{job_id: JobRecord}``."""
        kind = entry.get("type")
        job_id = entry.get("job_id")
        if kind == "job":
            if entry.get("version") != STORE_VERSION:
                raise BackendError(
                    f"job store version {entry.get('version')} "
                    f"is not supported"
                )
            try:
                payload, options = _decode(entry["payload"])
            except Exception:  # noqa: BLE001 — torn/corrupt blob
                return
            records[job_id] = JobRecord(
                job_id, entry["tenant"], entry["backend"],
                entry.get("priority", 0), entry.get("session"),
                entry.get("kind", "circuits"), payload, options,
                submitted_at=entry.get("submitted_at"),
                deadline=entry.get("deadline"),
            )
        elif kind == "state" and job_id in records:
            state = entry.get("state")
            if state in JOB_STATES:
                records[job_id].state = state
                if entry.get("attempt") is not None:
                    records[job_id].attempts = int(entry["attempt"])
        elif kind == "result" and job_id in records:
            try:
                records[job_id].result = _decode(entry["result"])
            except Exception:  # noqa: BLE001
                return
        elif kind == "quarantine" and job_id in records:
            records[job_id].quarantine = {
                "fault_stats": entry.get("fault_stats") or {},
                "error": entry.get("error"),
            }

    def chunk_ledger_path(self, job_id: str) -> str:
        """The per-job chunk checkpoint ledger path."""
        return os.path.join(self.directory, f"{job_id}.chunks.jsonl")

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
        """The minimal record sequence reproducing one job on replay."""
        lines = [
            _job_line(record),
            _state_line(record.job_id, record.state,
                        record.attempts or None),
        ]
        if record.result is not None:
            lines.append(_result_line(record.job_id, record.result))
        if record.quarantine is not None:
            lines.append(_quarantine_line(
                record.job_id, record.quarantine["fault_stats"],
                record.quarantine["error"],
            ))
        return lines

    def compact(self, retention: RetentionPolicy = None,
                now: float = None) -> dict:
        """Rewrite the ledger to a last-state-wins snapshot; returns
        stats.

        The snapshot is built in a ``mkstemp`` sibling and published
        with an atomic ``os.replace`` while holding the thread lock and
        an *exclusive* cross-process ``flock`` — so concurrent appenders
        (which take the shared lock per append and reopen the path each
        time) either land before the snapshot read or after the replace,
        never in between, and a crash mid-compaction leaves a complete
        old or new ledger.  ``retention`` prunes terminal jobs (their
        chunk ledgers deleted with them); ``now`` overrides the
        wall-clock reference for the ``max_age`` cut (tests).

        Stats — ``records_in/out``, ``bytes_in/out``, ``jobs_kept``,
        ``jobs_pruned`` — are returned and mirrored as
        ``repro_runtime_compaction_*`` gauges plus a
        ``repro_runtime_compactions_total`` counter in the unified
        metrics registry.
        """
        from repro.telemetry.metrics import get_metrics_registry

        now = time.time() if now is None else now
        with self._lock:
            fd = self._flock(exclusive=True)
            try:
                records: dict = {}
                lines_in = []
                if os.path.exists(self.path):
                    with open(self.path, "r", encoding="utf-8") as handle:
                        lines_in = handle.readlines()
                for entry in _read_records(lines_in):
                    self._replay(records, entry)
                dropped = self._pruned(records, retention, now)
                for job_id in dropped:
                    records.pop(job_id, None)
                lines = []
                for job_id in sorted(records, key=self._job_number):
                    lines.extend(self._snapshot_lines(records[job_id]))
                payload = "".join(
                    json.dumps(line, separators=(",", ":")) + "\n"
                    for line in lines
                )
                temp_fd, temp_path = tempfile.mkstemp(
                    dir=self.directory, suffix=".compact.tmp"
                )
                try:
                    with os.fdopen(temp_fd, "w", encoding="utf-8") as out:
                        out.write(payload)
                        out.flush()
                        os.fsync(out.fileno())
                    os.replace(temp_path, self.path)
                except BaseException:
                    try:
                        os.unlink(temp_path)
                    except OSError:
                        pass
                    raise
            finally:
                self._unflock(fd)
            # The ledgers of pruned jobs go after the snapshot is live:
            # a crash between replace and unlink leaves only orphaned
            # chunk files, which nothing ever replays.
            for job_id in dropped:
                try:
                    os.unlink(self.chunk_ledger_path(job_id))
                except OSError:
                    pass
        stats = {
            "records_in": sum(1 for line in lines_in if line.strip()),
            "records_out": len(lines),
            "bytes_in": sum(len(line.encode()) for line in lines_in),
            "bytes_out": len(payload.encode()),
            "jobs_kept": len(records),
            "jobs_pruned": len(dropped),
        }
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
