"""``repro-runtime`` — the runtime service's admin CLI.

A small operator surface over a service store directory, in the spirit
of the managed-queue tooling around the real IBM Q cloud::

    repro-runtime status  --store runs/           # job table + summary
    repro-runtime cancel  rt-3 --store runs/      # withdraw a queued job
    repro-runtime requeue rt-5 --store runs/      # revive a dead-letter
    repro-runtime compact --store runs/ --max-age 86400
    repro-runtime drain   --store runs/           # run the backlog down

``status``/``cancel``/``requeue``/``compact`` are *offline* operations:
they act directly on the store's journal (the same append/flock protocol
the live service uses, so they are safe to run next to one).  ``drain``
spins up a temporary service over the store, lets recovery re-queue the
backlog, runs it to completion, and shuts down — the restart-and-flush
tool for a machine that died with work queued.

Every command exits 0 on success and 1 on a usage/state error, and
takes ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.exceptions import BackendError
from repro.runtime.store import (
    JobStore,
    RetentionPolicy,
    TERMINAL_STATES,
)

#: States ``cancel`` may act on (anything not yet finished).
_CANCELLABLE = ("SUBMITTED", "QUEUED", "RUNNING")


def _store(args) -> JobStore:
    return JobStore(args.store)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_status(args) -> int:
    """Job table and per-state summary for one store directory."""
    records = _store(args).load()
    summary: dict = {}
    rows = []
    for job_id in sorted(records, key=JobStore._job_number):
        record = records[job_id]
        summary[record.state] = summary.get(record.state, 0) + 1
        rows.append({
            "job_id": record.job_id,
            "tenant": record.tenant,
            "backend": "/".join(record.backend_spec),
            "kind": record.kind,
            "state": record.state,
            "attempts": record.attempts,
            "quarantined": record.quarantine is not None,
        })
    payload = {"jobs": rows, "summary": summary}
    lines = [
        f"{row['job_id']:>8}  {row['state']:<11} "
        f"{row['tenant']:<10} {row['backend']:<22} "
        f"attempts={row['attempts']}"
        + ("  [quarantine ledger]" if row["quarantined"] else "")
        for row in rows
    ]
    counts = ", ".join(
        f"{state}={count}" for state, count in sorted(summary.items())
    ) or "empty store"
    _emit(args, payload, "\n".join(lines + [f"total: {counts}"]))
    return 0


def _require_job(store: JobStore, job_id: str):
    records = store.load()
    record = records.get(job_id)
    if record is None:
        raise BackendError(f"unknown job '{job_id}'")
    return record


def cmd_cancel(args) -> int:
    """Mark a not-yet-finished job CANCELLED in the journal."""
    store = _store(args)
    record = _require_job(store, args.job_id)
    if record.state not in _CANCELLABLE:
        raise BackendError(
            f"job {args.job_id} is {record.state}; only "
            f"{'/'.join(_CANCELLABLE)} jobs can be cancelled"
        )
    store.append_state(args.job_id, "CANCELLED")
    _emit(args, {"job_id": args.job_id, "state": "CANCELLED"},
          f"{args.job_id}: CANCELLED")
    return 0


def cmd_requeue(args) -> int:
    """Re-queue a quarantined/failed job as a fresh run (fresh
    dead-letter budget), exactly like ``RuntimeService.requeue``."""
    store = _store(args)
    store.requeue(_require_job(store, args.job_id))
    _emit(args, {"job_id": args.job_id, "state": "QUEUED"},
          f"{args.job_id}: QUEUED (next service run picks it up)")
    return 0


def cmd_compact(args) -> int:
    """Compact the journal, optionally applying retention flags."""
    retention = None
    if args.max_age is not None or args.max_terminal_jobs is not None:
        retention = RetentionPolicy(
            max_age=args.max_age,
            max_terminal_jobs=args.max_terminal_jobs,
        )
    stats = _store(args).compact(retention=retention)
    _emit(args, stats, (
        f"compacted: {stats['records_in']} -> {stats['records_out']} "
        f"records ({stats['bytes_in']} -> {stats['bytes_out']} bytes), "
        f"{stats['jobs_kept']} jobs kept, {stats['jobs_pruned']} pruned"
    ))
    return 0


def cmd_drain(args) -> int:
    """Run the store's backlog to completion with a temporary service."""
    from repro.runtime.service import RuntimeService

    with RuntimeService(args.store, max_workers=args.workers) as service:
        pending = [
            job for job in service.jobs()
            if job.status() not in TERMINAL_STATES
        ]
        for job in pending:
            try:
                job.result(timeout=args.timeout)
            except BackendError:
                pass  # terminal failure states still count as drained
    records = _store(args).load()
    summary: dict = {}
    for record in records.values():
        summary[record.state] = summary.get(record.state, 0) + 1
    remaining = sum(
        count for state, count in summary.items()
        if state not in TERMINAL_STATES
    )
    _emit(args, {"drained": len(pending), "summary": summary,
                 "remaining": remaining},
          f"drained {len(pending)} jobs; {remaining} still pending")
    return 0 if remaining == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-runtime",
        description="Admin tooling for a runtime-service store directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--store", required=True,
                         help="service store directory")
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output")
        cmd.set_defaults(func=func)
        return cmd

    add("status", cmd_status, "job table and per-state summary")
    cancel = add("cancel", cmd_cancel, "cancel a not-yet-finished job")
    cancel.add_argument("job_id")
    requeue = add("requeue", cmd_requeue,
                  "revive a quarantined/failed job")
    requeue.add_argument("job_id")
    compact = add("compact", cmd_compact,
                  "compact the store's journal (optional retention)")
    compact.add_argument("--max-age", type=float, default=None,
                         help="prune terminal jobs older than SECONDS")
    compact.add_argument("--max-terminal-jobs", type=int, default=None,
                         help="keep at most N terminal jobs")
    drain = add("drain", cmd_drain,
                "run the store's backlog to completion")
    drain.add_argument("--workers", type=int, default=2)
    drain.add_argument("--timeout", type=float, default=120.0,
                       help="per-job wait budget in seconds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BackendError as error:
        print(f"repro-runtime: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
