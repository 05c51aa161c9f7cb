"""Two-tier content-hash transpile cache.

Compiling the same circuit for the same device repeatedly is common —
parameter sweeps, shot-batching loops, repeated ``execute`` calls over a
fixed workload.  The cache keys on a content fingerprint of the circuit
*structure* (registers, instruction sequence, parameters, wiring) plus the
target identity and every transpile option that can change the output, so
a hit is guaranteed to be the exact circuit the compiler would have
produced.

Two tiers share that key:

* **memory** — the process-local LRU map that has always been here;
* **disk** (optional) — a directory of pickled compile results named by
  the sha256 of the full cache key, so *fresh processes* hit warm
  compiles: repeated CLI/batch invocations, runtime-service restarts,
  process-pool workers.  Writes are process-safe — each entry lands in a
  unique temp file first and is published with an atomic
  :func:`os.replace`, so concurrent writers can never expose a torn
  entry; readers treat unreadable/corrupt files as misses and drop them.
  A disk hit is promoted into the memory tier.

The disk tier is off unless enabled, by an explicit
:func:`configure_disk_cache` call or by the ``REPRO_TRANSPILE_CACHE_DIR``
environment variable, which is honoured at interpreter start — the knob
that makes separate CLI invocations share compiles.  Nothing in the
package turns it on: a runtime service and its sessions compile through
whichever tiers the process has.

Entries are kept in LRU order with hit/miss counters (memory and disk
tiers separately) exposed for observability — ``execute`` surfaces them
through job metadata, :meth:`TranspileCache.stats` returns them, and
every update pushes them to the ``repro_transpile_cache_*`` gauges of
the unified metrics registry, which the cache never reads back.

Knobs: ``transpile(..., transpile_cache=False)`` bypasses the cache for
one call; :func:`resize_transpile_cache` changes memory-tier capacity
(0 disables) while preserving the cumulative hit/miss counters, so the
gauges stay monotone across resizes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict

from repro.circuit.parameter import is_parameterized
from repro.telemetry.metrics import get_metrics_registry

#: Registry gauges the cache's counters are pushed to (name -> stats key).
_GAUGES = (
    ("repro_transpile_cache_hits", "Transpile cache hits", "hits"),
    ("repro_transpile_cache_misses", "Transpile cache misses", "misses"),
    ("repro_transpile_cache_disk_hits",
     "Transpile cache disk-tier hits", "disk_hits"),
    ("repro_transpile_cache_disk_misses",
     "Transpile cache disk-tier misses", "disk_misses"),
    ("repro_transpile_cache_size", "Transpile cache occupancy", "size"),
    ("repro_transpile_cache_maxsize", "Transpile cache capacity",
     "maxsize"),
)

#: Disk-entry format version; bumped on incompatible payload changes.
DISK_CACHE_VERSION = 1

#: Environment variable that enables the disk tier at interpreter start.
DISK_CACHE_ENV = "REPRO_TRANSPILE_CACHE_DIR"


def circuit_fingerprint(circuit) -> str:
    """A content hash of the circuit's structure.

    Two circuits with the same fingerprint transpile identically: the hash
    covers register names/sizes, the full instruction sequence with
    parameters (and raw matrix/diagonal payloads for unitary/diagonal
    gates), qubit/clbit wiring, and conditions.
    """
    hasher = hashlib.sha256()

    def feed(text):
        hasher.update(text.encode())
        hasher.update(b"\x00")

    feed("qregs")
    for register in circuit.qregs:
        feed(f"{register.name}:{register.size}")
    feed("cregs")
    for register in circuit.cregs:
        feed(f"{register.name}:{register.size}")
    qubit_index = {qubit: i for i, qubit in enumerate(circuit.qubits)}
    clbit_index = {clbit: i for i, clbit in enumerate(circuit.clbits)}
    feed("ops")
    for item in circuit.data:
        operation = item.operation
        feed(operation.name)
        for param in operation.params:
            if is_parameterized(param):
                # A symbolic angle hashes by expression structure and the
                # identities of its free symbols — so a parameterized
                # template fingerprints stably across bindings (one
                # transpile per pub, not per binding) while distinct
                # same-named parameters stay distinct.
                uuids = ",".join(sorted(
                    p._uuid.hex for p in param.parameters
                ))
                feed(f"expr:{param!s}:{uuids}")
            elif isinstance(param, complex):
                feed(repr(complex(param)))
            else:
                feed(repr(float(param)))
        for attr in ("_unitary", "_diag"):
            payload = getattr(operation, attr, None)
            if payload is not None:
                hasher.update(payload.tobytes())
        feed(",".join(str(qubit_index[q]) for q in item.qubits))
        feed(",".join(str(clbit_index[c]) for c in item.clbits))
        condition = operation.condition
        if condition is not None:
            register, value = condition
            feed(f"cond:{register.name}:{register.size}:{int(value)}")
    return hasher.hexdigest()


def disk_entry_name(key: tuple) -> str:
    """The disk filename for a cache key.

    The key is built from primitives with stable ``repr`` (the sha256
    fingerprint string, the target's calibration tuple, option scalars),
    so the same circuit/target/options hash to the same file in every
    process.
    """
    digest = hashlib.sha256(repr(key).encode()).hexdigest()
    return f"{digest}.transpile.pkl"


class DiskCacheTier:
    """The on-disk tier: one pickle file per compile result.

    Process-safe by construction — writes go to a ``tempfile`` in the
    cache directory and are published with :func:`os.replace`, which is
    atomic on POSIX and Windows alike; a reader either sees the whole
    entry or none of it.  Every failure mode (unreadable file, pickle
    from a different version, a full disk) degrades to a miss: the disk
    tier can slow a compile down by a stat call, never break it.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: tuple) -> str:
        return os.path.join(self.directory, disk_entry_name(key))

    def load(self, key: tuple):
        """The stored ``(compiled, layout, permutation)`` entry, or None."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != DISK_CACHE_VERSION
        ):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return payload["entry"]

    def store(self, key: tuple, entry) -> None:
        """Publish one entry atomically; failures are silently dropped."""
        path = self._path(key)
        payload = {"version": DISK_CACHE_VERSION, "entry": entry}
        try:
            fd, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError):
            # Unpicklable payloads and full disks must not fail the
            # compile; the entry just stays memory-only.
            return

    def __len__(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.directory)
                if name.endswith(".transpile.pkl")
            )
        except OSError:
            return 0


class TranspileCache:
    """A two-tier LRU map from (circuit, target, options) to compiled
    results."""

    def __init__(self, maxsize: int = 64, disk: DiskCacheTier = None):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk = disk
        self._entries: OrderedDict = OrderedDict()

    def make_key(self, circuit, target, options: tuple) -> tuple:
        """The full cache key for a transpile call."""
        target_key = target.cache_key() if target is not None else None
        return (circuit_fingerprint(circuit), target_key, options)

    def _sync_registry(self) -> None:
        """Push the hit/miss/occupancy counters to the registry gauges."""
        registry = get_metrics_registry()
        values = self.stats()
        for name, help_text, stat in _GAUGES:
            registry.gauge(name, help_text).set(values[stat])

    def _materialize(self, entry):
        """A caller-owned circuit copy of one cached entry."""
        compiled, initial_layout, final_permutation = entry
        result = compiled.copy()
        result.name = compiled.name
        result.initial_layout = initial_layout
        result.final_permutation = final_permutation
        return result

    def lookup(self, key):
        """The cached compiled circuit for ``key``, or None (counts a
        hit/miss either way).

        Memory first; on a memory miss with the disk tier enabled, the
        entry is loaded from disk (counted as ``disk_hits``/
        ``disk_misses``), promoted into the memory tier, and returned —
        so a fresh process pays the pass pipeline only for circuits no
        previous process compiled.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._sync_registry()
            self._entries.move_to_end(key)
            return self._materialize(entry)
        if self.disk is not None:
            entry = self.disk.load(key)
            if entry is not None:
                self.disk_hits += 1
                # Promote: later lookups in this process are memory hits.
                self._store_memory(key, entry)
                self._sync_registry()
                return self._materialize(entry)
            self.disk_misses += 1
        self.misses += 1
        self._sync_registry()
        return None

    def _store_memory(self, key, entry) -> None:
        if self.maxsize <= 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def store(self, key, compiled) -> None:
        """Cache a compiled circuit (a private copy is stored), writing
        through to the disk tier when one is configured."""
        if self.maxsize <= 0 and self.disk is None:
            return
        kept = compiled.copy()
        kept.name = compiled.name
        entry = (
            kept,
            getattr(compiled, "initial_layout", None),
            getattr(compiled, "final_permutation", None),
        )
        self._store_memory(key, entry)
        if self.disk is not None:
            self.disk.store(key, entry)
        self._sync_registry()

    def resize(self, maxsize: int) -> None:
        """Change memory-tier capacity (0 disables it); overflowing
        entries are evicted LRU-first.

        The cumulative hit/miss counters (both tiers) survive the
        resize, so they and their gauges stay monotone — a resize
        reshapes capacity, it does not restart observability.
        """
        self.maxsize = maxsize
        while len(self._entries) > maxsize:
            self._entries.popitem(last=False)
        self._sync_registry()

    def stats(self) -> dict:
        """Hit/miss counters (memory and disk tiers) and current
        occupancy."""
        return {
            "hits": self.hits, "misses": self.misses,
            "disk_hits": self.disk_hits, "disk_misses": self.disk_misses,
            "size": len(self._entries), "maxsize": self.maxsize,
        }

    def clear(self) -> None:
        """Drop all memory-tier entries and reset the counters.

        The disk tier's files are left alone (other processes may be
        reading them); use :func:`configure_disk_cache(None)
        <configure_disk_cache>` to detach it.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self._sync_registry()


def _disk_tier_from_env():
    directory = os.environ.get(DISK_CACHE_ENV)
    if not directory:
        return None
    try:
        return DiskCacheTier(directory)
    except OSError:
        return None


_CACHE = TranspileCache(disk=_disk_tier_from_env())


def get_transpile_cache() -> TranspileCache:
    """The process-wide transpile cache."""
    return _CACHE


def clear_transpile_cache() -> None:
    """Empty the process-wide cache's memory tier and reset its counters."""
    _CACHE.clear()


def resize_transpile_cache(maxsize: int) -> None:
    """Change memory-tier capacity; 0 disables memory caching entirely.

    Cumulative hit/miss statistics are preserved across resizes (they
    and their gauges stay monotone); only capacity and the LRU overflow
    change.
    """
    _CACHE.resize(maxsize)


def configure_disk_cache(directory) -> None:
    """Attach (or with ``None`` detach) the on-disk cache tier.

    ``directory`` is created if missing.  Every process pointing at the
    same directory shares compiles: lookups fall back to disk on memory
    misses and stores write through, with atomic-rename publication so
    concurrent processes never observe torn entries.
    """
    _CACHE.disk = None if directory is None else DiskCacheTier(directory)
    _CACHE._sync_registry()
