"""The JSON-lines journal: one append/replay/compact primitive.

Every durable record goes through a :class:`Journal`: the runtime
store's job, state, result and quarantine records, and the job and
chunk records ``Job.resume`` restarts from.  A journal is one file of
JSON objects, one per line, plus a sibling ``<path>.lock`` file that
coordinates writers across threads and processes:

* **append** — one ``os.write`` of newline-terminated lines on an
  ``O_APPEND`` descriptor, under a *shared* ``flock`` on the lock file.
  POSIX keeps the write atomic, so service threads and pool workers in
  other processes append to one journal without interleaving.  The path
  is reopened per append, so an append after a compaction lands in the
  new file.  A torn final line left by a crash is first closed with a
  newline, so the next record never merges into the fragment;
* **replay** — yields the records in file order, skipping blank lines
  and any line that does not parse (a torn write);
* **compact** — under an *exclusive* ``flock``, replays the journal,
  passes the records to a rewrite function, writes what it returns to a
  ``mkstemp`` sibling, calls ``fsync`` and publishes the file with one
  atomic ``os.replace``.  No append lands between the read and the
  replace, and a crash mid-compaction leaves the complete old journal or
  the complete new one.

Pickled objects (circuits, options, results) ride inside records as
base64 text, through :func:`encode` and :func:`decode`.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
from contextlib import contextmanager

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX: no cross-process lock
    fcntl = None


def encode(obj) -> str:
    """Pickle ``obj`` into base64 text for a journal record."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode(blob: str):
    """The object :func:`encode` pickled into ``blob``."""
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def _line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _parse(lines):
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except ValueError:
            continue


class Journal:
    """A JSON-lines file with atomic appends and atomic compaction."""

    def __init__(self, path):
        self.path = str(path)
        self.lock_path = self.path + ".lock"

    @contextmanager
    def _locked(self, exclusive: bool):
        if fcntl is None:
            yield
            return
        fd = os.open(self.lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield
        finally:
            # Unlock explicitly: a forked pool worker may share the
            # descriptor, and closing alone would not release it then.
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def append(self, *records: dict) -> None:
        """Append ``records`` with one atomic write."""
        data = "".join(map(_line, records)).encode()
        with self._locked(exclusive=False):
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND,
                         0o644)
            try:
                end = os.lseek(fd, 0, os.SEEK_END)
                if end and os.pread(fd, 1, end - 1) != b"\n":
                    data = b"\n" + data
                os.write(fd, data)
            finally:
                os.close(fd)

    def replay(self):
        """Yield every record in file order; torn lines are skipped."""
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            return
        with handle:
            yield from _parse(handle)

    def compact(self, rewrite) -> dict:
        """Replace the journal with ``rewrite(records)``; returns stats.

        ``rewrite`` takes the replayed records as a list and returns the
        records to keep.  Stats: ``records_in``/``records_out`` and
        ``bytes_in``/``bytes_out``.
        """
        with self._locked(exclusive=True):
            try:
                with open(self.path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                data = b""
            records_in = list(_parse(data.decode().splitlines()))
            records = rewrite(records_in)
            payload = "".join(map(_line, records)).encode()
            temp_fd, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(self.path)),
                suffix=".compact.tmp",
            )
            try:
                with os.fdopen(temp_fd, "wb") as out:
                    out.write(payload)
                    out.flush()
                    os.fsync(out.fileno())
                os.replace(temp_path, self.path)
            except BaseException:
                os.unlink(temp_path)
                raise
        return {
            "records_in": len(records_in), "records_out": len(records),
            "bytes_in": len(data), "bytes_out": len(payload),
        }
