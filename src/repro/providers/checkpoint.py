"""Chunk checkpoints: the job and chunk records behind ``Job.resume``.

A checkpointed job writes two kinds of records into a
:class:`~repro.providers.journal.Journal`:

* a **job** record (:func:`job_line` is its one writer): the job id, the
  backend's ``(provider, name)`` spec, and the base64-pickled
  ``(circuits, run options)`` pair.  ``backend.run(checkpoint=path)``
  appends one at submission; the runtime store appends the same record,
  with its own tenant, priority, session and deadline fields, at every
  submission and requeue;
* one **chunk** record per completed unit, keyed by
  ``(job id, experiment index, chunk index)``, appended by the worker
  that ran it.  The embedded outcome is the full
  :class:`~repro.providers.result.ExperimentResult` (base64-pickled);
  the sibling plain-JSON fields (name, status, shots, counts total)
  exist so a human — or ``grep`` — can audit the journal without
  unpickling anything.

A resume prepares the job again from its job record and hands the
restored chunks to :meth:`~repro.providers.engine.ExecutionEngine
.launch`, which gives them to the dispatch as finished units and runs
only the rest.  Preparing again reproduces every payload: experiment
and chunk seeds derive from the recorded ``seed``, the fault schedule
hashes the pickled injector, and compilation ignores the run seed.
:func:`replay` holds the rule every reader applies: a job's checkpoint
is its latest ``job`` record plus the first DONE chunk record per
``(experiment, chunk)`` after it, so a re-run chunk never double-counts;
the ``header`` records of older journals are skipped.
"""

from __future__ import annotations

from repro.exceptions import BackendError
from repro.providers.journal import Journal, decode, encode

#: Ledger schema version, bumped on incompatible record changes.
LEDGER_VERSION = 1


def job_line(job_id: str, backend_spec, payload: str, **fields) -> dict:
    """The ``job`` record for ``payload``, the :func:`encode`-d
    ``(circuits_or_pubs, options)`` pair, plus ``fields``."""
    if backend_spec is None:
        raise BackendError(
            "checkpointing requires a backend with a provider spec "
            "(Aer/IBMQ registry backends)"
        )
    return dict({"type": "job", "version": LEDGER_VERSION,
                 "job_id": job_id, "backend": list(backend_spec)},
                **fields, payload=payload)


def write_job(path: str, job_id: str, backend_spec, circuits,
              options: dict) -> None:
    """Start a direct job's checkpoint: append its ``job`` record (less
    the ``checkpoint`` and ``job_trace`` options, which belong to one
    run)."""
    options = {key: value for key, value in options.items()
               if key not in ("checkpoint", "job_trace")}
    Journal(path).append(job_line(job_id, backend_spec,
                                  encode((circuits, options)),
                                  kind="circuits"))


def append_chunk(path: str, job_id: str, experiment: int, chunk: int,
                 outcome) -> None:
    """Record one completed ``(experiment, chunk)`` unit (worker-side)."""
    data = outcome.data if isinstance(outcome.data, dict) else {}
    counts = data.get("counts")
    Journal(path).append({
        "type": "chunk",
        "job_id": job_id,
        "experiment": int(experiment),
        "chunk": int(chunk),
        "name": outcome.circuit_name,
        "status": outcome.status,
        "shots": outcome.shots,
        "counts_total": sum(counts.values()) if counts else 0,
        "outcome": encode(outcome),
    })


def replay(checkpoints: dict, record: dict) -> None:
    """Apply one journal record to ``{job_id: (job, chunks)}``: a ``job``
    record (of a known version, else :class:`BackendError`) starts that
    job's checkpoint afresh, and ``chunks`` keeps the first DONE chunk
    record per ``(experiment, chunk)`` after it.  Nothing is unpickled.
    """
    kind = record.get("type")
    job_id = record.get("job_id")
    if kind == "job":
        if record.get("version") != LEDGER_VERSION:
            raise BackendError(
                f"job record version {record.get('version')} "
                f"is not supported"
            )
        checkpoints[job_id] = (record, {})
    elif kind == "chunk" and record.get("status") == "DONE" \
            and job_id in checkpoints:
        key = (int(record["experiment"]), int(record["chunk"]))
        checkpoints[job_id][1].setdefault(key, record)


def restore(records: dict) -> dict:
    """Decode ``(experiment, chunk)``-keyed chunk records into their
    :class:`~repro.providers.result.ExperimentResult`; a chunk whose
    outcome does not unpickle is left out, so resume re-runs it."""
    chunks: dict = {}
    for key, record in records.items():
        try:
            chunks[key] = decode(record["outcome"])
        except Exception:  # noqa: BLE001 — torn/corrupt payload
            continue
    return chunks


def load_ledger(path: str):
    """The checkpoint of the latest job in the journal at ``path``:
    its ``job`` record with ``payload`` unpickled to the ``(circuits,
    options)`` pair, and its restored chunks (see :func:`restore`)."""
    checkpoints: dict = {}
    latest = None
    for record in Journal(path).replay():
        replay(checkpoints, record)
        if record.get("type") == "job":
            latest = record.get("job_id")
    if latest is None:
        raise BackendError(f"no job record to resume in '{path}'")
    job, records = checkpoints[latest]
    return dict(job, payload=decode(job["payload"])), restore(records)
