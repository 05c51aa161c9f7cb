"""Sessions: a tenant's jobs pinned to one warm backend.

The real IBM Runtime's sessions exist to amortize per-job overhead: a
session reserves a device window so consecutive jobs skip the cold
queue, and the service keeps compiled artifacts warm between them.
:class:`Session` reproduces the local analogue — it pins every job to
the service's *warm* backend instance (whose gate-matrix caches persist
across jobs) and shares the process transpile cache, so the session's
second job never recompiles what the first one did in this process.
The cache's on-disk tier, which carries compiles across processes, is
on only where ``REPRO_TRANSPILE_CACHE_DIR`` or an explicit
:func:`~repro.transpiler.cache.configure_disk_cache` call enabled it.

A session quacks like a backend: it exposes ``run``/``run_pubs``/
``name``/``configuration``, so the V2 primitives run over the service
unchanged::

    with service.session(backend="qasm_simulator") as session:
        sampler = SamplerV2(session)       # primitives over the service
        job = session.run(circuits, shots=1024, seed=7)

``Session.run`` returns a :class:`~repro.runtime.service.RuntimeJob` —
durable, fair-share scheduled, streamable — not an inline provider job.
"""

from __future__ import annotations


class Session:
    """A handle binding a tenant's submissions to one warm backend.

    Created by :meth:`RuntimeService.session`; usable as a context
    manager (closing is bookkeeping only — jobs already submitted keep
    running, like detaching from a cloud session).
    """

    def __init__(self, service, backend, tenant: str = "default",
                 session_id: str = None):
        self._service = service
        self._backend = backend
        self.tenant = tenant
        self.session_id = session_id
        self._closed = False

    # -- backend-compatible surface --------------------------------------

    def name(self) -> str:
        """The pinned backend's name (backend API compatibility)."""
        return self._backend.name()

    def configuration(self):
        """The pinned backend's configuration."""
        return self._backend.configuration()

    @property
    def backend(self):
        """The warm backend instance this session pins jobs to."""
        return self._backend

    def run(self, circuits, *, priority: int = 0, **options):
        """Submit circuits through the service, pinned to the warm
        backend.

        Accepts the same options as ``BaseBackend.run`` plus the
        service's ``priority``; returns a
        :class:`~repro.runtime.service.RuntimeJob`.
        """
        self._check_open()
        return self._service.submit(
            circuits, backend=self._backend, tenant=self.tenant,
            priority=priority, session=self.session_id, **options,
        )

    def run_pubs(self, pubs, *, priority: int = 0, **options):
        """Submit primitive PUBs through the service (see
        ``BaseBackend.run_pubs``)."""
        self._check_open()
        return self._service.submit_pubs(
            pubs, backend=self._backend, tenant=self.tenant,
            priority=priority, session=self.session_id, **options,
        )

    # -- lifecycle -------------------------------------------------------

    def jobs(self) -> list:
        """This session's jobs, newest first."""
        return [
            job for job in self._service.jobs(tenant=self.tenant)
            if job.session_id == self.session_id
        ]

    def close(self) -> None:
        """Stop accepting submissions (already-queued jobs continue)."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            from repro.exceptions import BackendError

            raise BackendError(
                f"session {self.session_id} is closed"
            )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.session_id}, backend={self.name()!r}, "
            f"tenant={self.tenant!r}, {state})"
        )
