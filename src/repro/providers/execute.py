"""Top-level ``execute`` and ``transpile`` entry points (paper Sec. IV).

.. deprecated:: (soft)
    ``execute()`` remains supported for one-off submissions, but
    multi-job workloads should prefer a :class:`repro.runtime.Session`
    on a :class:`repro.runtime.RuntimeService`: sessions pin jobs to a
    warm backend (reusing its gate-matrix caches and the two-tier
    transpile cache), persist jobs in a durable store that survives
    process restarts, and apply fair-share scheduling across tenants.
    ``execute`` re-instantiates nothing per call either — it drives the
    same :class:`~repro.providers.engine.ExecutionEngine` — but it gives
    you none of the queueing, durability, or warm-session behavior.
"""

from __future__ import annotations

from repro.providers.backend import BaseBackend, Job
from repro.exceptions import BackendError
from repro.providers.engine import get_execution_engine
from repro.telemetry.jobtrace import JobTrace
from repro.transpiler.cache import get_transpile_cache
from repro.transpiler.preset import transpile as _transpile

#: Re-exported so ``from repro import transpile`` matches the Qiskit API.
transpile = _transpile


def execute(circuits, backend: BaseBackend, shots: int = 1024, seed=None,
            noise_model=None, memory: bool = False,
            optimization_level: int = 1, executor: str = None,
            max_workers: int = None, transpile_cache: bool = True,
            retry_policy=None, fault_injector=None,
            shot_chunk_size=None, checkpoint=None) -> Job:
    """Compile (if needed), assemble, and run circuits on a backend.

    For simulator backends the circuits run as-is.  For device backends the
    circuits are compiled against a :class:`~repro.transpiler.target.Target`
    built from the backend's configuration and calibrations — the
    ``compile`` step of the paper's Section IV run-through.  Compiled
    circuits are memoised in the content-hash transpile cache, and
    compilation does not depend on ``seed``, so re-executing an identical
    batch with any seed skips compilation entirely
    (``transpile_cache=False`` opts out; the returned job carries the
    cache counters as ``job.transpile_cache_stats``).  The batch is then
    snapshot, circuit by circuit, and scheduled by the execution pipeline
    (see :mod:`repro.providers.executor`).

    Executor knobs:

    * ``executor`` — ``"serial"`` (default None; ``"auto"`` means the
      same), ``"threads"``, or ``"processes"``.  A process pool that
      breaks mid-batch re-runs its unfinished experiments on threads.
    * ``max_workers`` — pool width for the parallel executors.

    Fault tolerance (see :mod:`repro.providers.retry` and
    :mod:`repro.providers.faults`):

    * ``retry_policy`` — per-experiment retry budget/backoff (a
      :class:`~repro.providers.retry.RetryPolicy`, a kwargs dict, or
      False to disable); default: up to 3 attempts.
    * ``fault_injector`` — arm a seeded
      :class:`~repro.providers.faults.FaultInjector` for reproducible
      chaos testing.

    Shot-chunk streaming and resume (see ``BaseBackend.run``):

    * ``shot_chunk_size`` — shots per chunk (default 16384; 0 disables).
      Experiments whose backend pays per shot — a device or
      ``qasm_simulator`` run under gate noise, DD and stabilizer
      circuits — split above it, one executor payload per chunk; every
      other experiment draws all its shots from its own seed.
    * ``checkpoint`` — ledger path; completed chunks persist as they
      finish and ``Job.resume(path)`` restarts a crashed job re-running
      only the missing ones.

    The returned job exposes the fault/retry ledger as
    ``job.fault_stats`` and supports ``result(timeout=..., partial=True)``
    to gather whatever finished before a deadline or cancel.

    The batch ``seed`` seeds the run only: it is expanded into one derived
    seed per experiment at assembly, so a seeded batch returns
    bit-identical results under every executor.  The returned
    :class:`Job` exposes ``status()``, ``cancel()``, and per-experiment
    timing/error metadata on its result.

    When tracing is enabled (:func:`repro.telemetry.enable_tracing`
    before this call) the job records a hierarchical trace — transpile
    and per-pass spans included — queryable via ``job.trace()``.
    """
    if not isinstance(backend, BaseBackend):
        raise BackendError("backend must come from Aer or IBMQ get_backend")
    single = not isinstance(circuits, (list, tuple))
    batch = [circuits] if single else list(circuits)
    engine = get_execution_engine()
    # The trace is created before compiling so the transpile spans (and
    # their per-pass children) join the job's trace; the reserved id
    # becomes the Job's id inside ``backend.run``.
    job_trace = JobTrace(Job.reserve_id(), backend.name())
    batch = engine.compile_batch(
        backend, batch, job_trace,
        optimization_level=optimization_level,
        transpile_cache=transpile_cache,
    )
    forwarded = {
        "noise_model": noise_model, "executor": executor,
        "max_workers": max_workers, "retry_policy": retry_policy,
        "fault_injector": fault_injector,
        "shot_chunk_size": shot_chunk_size, "checkpoint": checkpoint,
    }
    options = {key: value for key, value in forwarded.items()
               if value is not None}
    job = backend.run(batch, shots=shots, seed=seed, memory=memory,
                      job_trace=job_trace, **options)
    job.transpile_cache_stats = get_transpile_cache().stats()
    return job
