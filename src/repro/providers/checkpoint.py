"""Chunk checkpoints: the header and chunk records behind ``Job.resume``.

A checkpointed job writes two kinds of records into a
:class:`~repro.providers.journal.Journal`:

* a **header**, appended once at submission (before dispatch), carrying
  everything needed to reconstruct the job in a fresh process: the job
  id, the backend's ``(provider, name)`` spec, the full payload list
  (base64-pickled — configs embed derived seeds, retry policies, fault
  injectors, and chunk descriptors, so a resumed chunk re-runs with
  byte-identical inputs), and the dispatch plan that maps payload
  positions to ``(experiment, chunk)`` units;
* one **chunk** record per completed unit, keyed by
  ``(job id, experiment index, chunk index)``, appended by the worker
  that ran it.  The embedded outcome is the full
  :class:`~repro.providers.result.ExperimentResult` (base64-pickled);
  the sibling plain-JSON fields (name, status, shots, counts total)
  exist so a human — or ``grep`` — can audit the journal without
  unpickling anything.

``backend.run(checkpoint=path)`` makes ``path`` a journal with one job
in it; the runtime service writes the same records into its store's
``jobs.jsonl``, keyed by the ``rt-N`` job id.  :func:`replay` holds the
rule both read them by: a job's checkpoint is its latest header plus the
chunk records after it, keeping the first DONE record per
``(experiment, chunk)`` — so a re-run chunk never double-counts — and a
``job`` record (a service submission or requeue) clears it.  A new
header appends rather than truncating: the latest one wins.
"""

from __future__ import annotations

from repro.exceptions import BackendError
from repro.providers.journal import Journal, decode, encode

#: Ledger schema version, bumped on incompatible record changes.
LEDGER_VERSION = 1


def write_header(path: str, job_id: str, backend_spec, payloads,
                 plan) -> None:
    """Start a job's checkpoint: record its identity, payloads, and plan."""
    if backend_spec is None:
        raise BackendError(
            "checkpointing requires a backend with a provider spec "
            "(Aer/IBMQ registry backends)"
        )
    Journal(path).append({
        "type": "header",
        "version": LEDGER_VERSION,
        "job_id": job_id,
        "backend": list(backend_spec),
        "plan": plan,
        "payloads": encode(payloads),
    })


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
    """Apply one journal record to ``{job_id: (header, chunks)}``.

    ``header`` is the raw header record and ``chunks`` maps
    ``(experiment, chunk)`` to the first DONE chunk record after it;
    records of other types leave the map alone, except ``job``, which
    clears that job's checkpoint.  Nothing is unpickled here.
    """
    kind = record.get("type")
    job_id = record.get("job_id")
    if kind == "header":
        checkpoints[job_id] = (record, {})
    elif kind == "job":
        checkpoints.pop(job_id, None)
    elif kind == "chunk" and record.get("status") == "DONE" \
            and job_id in checkpoints:
        key = (int(record["experiment"]), int(record["chunk"]))
        checkpoints[job_id][1].setdefault(key, record)


def restore(checkpoint):
    """Decode one job's ``(header, chunks)`` checkpoint records.

    Returns the header with ``payloads`` unpickled and a map from
    ``(experiment, chunk)`` to the recorded
    :class:`~repro.providers.result.ExperimentResult`; a chunk whose
    outcome does not unpickle is left out, so resume re-runs it.
    """
    header, records = checkpoint
    if header.get("version") != LEDGER_VERSION:
        raise BackendError(
            f"checkpoint ledger version {header.get('version')} "
            f"is not supported"
        )
    chunks: dict = {}
    for key, record in records.items():
        try:
            chunks[key] = decode(record["outcome"])
        except Exception:  # noqa: BLE001 — torn/corrupt payload
            continue
    return dict(header, payloads=decode(header["payloads"])), chunks


def load_ledger(path: str):
    """Read the checkpoint of the latest job in the journal at ``path``
    as ``(header, chunks)`` (see :func:`restore`)."""
    checkpoints: dict = {}
    latest = None
    for record in Journal(path).replay():
        replay(checkpoints, record)
        if record.get("type") == "header":
            latest = record.get("job_id")
    if latest not in checkpoints:
        raise BackendError(f"no checkpoint header in '{path}'")
    return restore(checkpoints[latest])
