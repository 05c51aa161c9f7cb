"""Chunk-level checkpointing: the JSON-lines ledger behind ``Job.resume``.

A job submitted with ``checkpoint=<path>`` persists two kinds of records,
one JSON object per line:

* a **header** (written once at submission, before dispatch) carrying
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
  exist so a human — or ``grep`` — can audit the ledger without
  unpickling anything.

Appends go through a single ``os.write`` on an ``O_APPEND`` descriptor,
which POSIX keeps atomic for line-sized writes — workers in separate
processes can share one ledger without interleaving.  Readers dedupe on
``(experiment, chunk)`` keeping the first DONE record, so a re-run chunk
(retry after a crash mid-append, say) never double-counts.
"""

from __future__ import annotations

import base64
import json
import os
import pickle

from repro.exceptions import BackendError

#: Ledger schema version, bumped on incompatible record changes.
LEDGER_VERSION = 1


def _encode(obj) -> str:
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode(blob: str):
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def _append_line(path: str, record: dict) -> None:
    """Atomically append one JSON record (newline-terminated) to the ledger."""
    line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def _read_records(lines):
    """Yield the JSON record on each of ``lines`` (an open JSON-lines file
    or a list of its lines).

    Blank lines are skipped, and so is any line that does not parse — a
    torn write, cut off by a crash mid-append.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        yield record


def write_header(path: str, job_id: str, backend_spec, payloads,
                 plan) -> None:
    """Start a ledger: record the job's identity, payloads, and plan.

    Truncates any stale ledger at ``path`` — a checkpoint file belongs to
    exactly one job submission; resumed jobs append to the same file.
    """
    if backend_spec is None:
        raise BackendError(
            "checkpointing requires a backend with a provider spec "
            "(Aer/IBMQ registry backends)"
        )
    record = {
        "type": "header",
        "version": LEDGER_VERSION,
        "job_id": job_id,
        "backend": list(backend_spec),
        "plan": plan,
        "payloads": _encode(payloads),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def append_chunk(path: str, job_id: str, experiment: int, chunk: int,
                 outcome) -> None:
    """Record one completed ``(experiment, chunk)`` unit (worker-side)."""
    data = outcome.data if isinstance(outcome.data, dict) else {}
    counts = data.get("counts")
    _append_line(path, {
        "type": "chunk",
        "job_id": job_id,
        "experiment": int(experiment),
        "chunk": int(chunk),
        "name": outcome.circuit_name,
        "status": outcome.status,
        "shots": outcome.shots,
        "counts_total": sum(counts.values()) if counts else 0,
        "outcome": _encode(outcome),
    })


def load_ledger(path: str):
    """Read a ledger back as ``(header, chunks)``.

    ``header`` has ``payloads`` unpickled in place; ``chunks`` maps
    ``(experiment, chunk)`` to the recorded
    :class:`~repro.providers.result.ExperimentResult` (first DONE record
    wins; non-DONE records are skipped so resume re-runs those units).
    Malformed trailing lines — a crash mid-append — are ignored.
    """
    if not os.path.exists(path):
        raise BackendError(f"no checkpoint ledger at '{path}'")
    header = None
    chunks: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for record in _read_records(handle):
            kind = record.get("type")
            if kind == "header":
                if record.get("version") != LEDGER_VERSION:
                    raise BackendError(
                        f"checkpoint ledger version "
                        f"{record.get('version')} is not supported"
                    )
                record["payloads"] = _decode(record["payloads"])
                header = record
            elif kind == "chunk":
                key = (int(record["experiment"]), int(record["chunk"]))
                if key in chunks or record.get("status") != "DONE":
                    continue
                try:
                    chunks[key] = _decode(record["outcome"])
                except Exception:  # noqa: BLE001 — torn/corrupt payload
                    continue
    if header is None:
        raise BackendError(
            f"checkpoint ledger '{path}' has no header record"
        )
    return header, chunks
