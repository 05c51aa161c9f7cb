"""Backend abstraction: configuration, base class, and the Job lifecycle.

``BaseBackend.run`` implements the paper's Section IV pipeline in four
stages shared by every backend:

1. **assemble** — each circuit is snapshot by
   :func:`repro.qobj.assembler.flatten_circuit` (operations copied,
   composite gates expanded), and one seed per experiment is derived
   from the batch seed;
2. **schedule** — :mod:`repro.providers.executor` runs the payloads on a
   serial, thread, or process executor (``executor`` option, default
   serial);
3. **run** — each payload circuit is simulated independently, with
   per-experiment timing and error capture;
4. **collect** — :meth:`Job.result` gathers the experiment results into a
   :class:`~repro.providers.result.Result`.

The pipeline itself lives in :mod:`repro.providers.engine`:
``BaseBackend.run``/``run_pubs`` are thin submission APIs over the
process-wide :class:`~repro.providers.engine.ExecutionEngine`, which the
multi-tenant :mod:`repro.runtime` service drives directly — so direct
backend submissions and service-scheduled ones share one code path.
"""

from __future__ import annotations

import itertools

from repro.providers.executor import JobStatus
from repro.providers.result import Result, merge_chunk_outcomes


class BackendConfiguration:
    """Static description of a backend's capabilities."""

    def __init__(self, name, num_qubits, basis_gates, simulator=True,
                 coupling_map=None, conditional=True, memory=True,
                 max_shots=1 << 20, description=""):
        self.backend_name = name
        self.num_qubits = num_qubits
        self.basis_gates = list(basis_gates)
        self.simulator = simulator
        self.coupling_map = coupling_map
        self.conditional = conditional
        self.memory = memory
        self.max_shots = max_shots
        self.description = description

    def __repr__(self):
        kind = "simulator" if self.simulator else "device"
        return (
            f"BackendConfiguration({self.backend_name!r}, "
            f"{self.num_qubits} qubits, {kind})"
        )


class Job:
    """A scheduled batch execution with an observable lifecycle.

    States: ``INITIALIZING`` (accepted, not yet running) -> ``RUNNING`` ->
    ``DONE`` or ``ERROR`` (at least one experiment failed); ``cancel()``
    before execution starts moves the job to ``CANCELLED``.  With the
    serial executor, execution is deferred until :meth:`result` is first
    called; pool executors start running at submission.  The job's
    :class:`~repro.providers.executor.Dispatch` runs every unit of the
    plan, and its outcome table is the job's one record of finished
    units — checkpoint-restored chunks included.
    """

    _id_counter = itertools.count()

    def __init__(self, backend, dispatch, plan, trace):
        self._backend = backend
        self._dispatch = dispatch
        self._result = None
        #: Dispatch plan: one entry per payload unit, in payload order —
        #: ``{"experiment_index", "name", "chunk": int|None, "chunks"}``.
        self._plan = plan
        self._trace = trace
        self.job_id = trace.job_id

    @classmethod
    def reserve_id(cls) -> str:
        """Allocate the next job id ahead of construction.

        ``execute`` reserves the id before transpiling so the compile
        spans join the job's trace; the id is then threaded through
        ``backend.run(job_trace=...)`` into the :class:`Job`.
        """
        return f"job-{next(cls._id_counter)}"

    @classmethod
    def resume(cls, checkpoint_path, executor=None, max_workers=None):
        """Restart a checkpointed job, re-running only the missing chunks.

        Prepares the latest job in the journal a ``checkpoint=<path>``
        submission wrote again from its ``job`` record — reproducing
        every payload (derived seeds, retry policy, fault schedule) — on
        a backend rebuilt from its provider spec, and launches it with
        the DONE chunks recorded after that record as finished units, so
        the merged result is bit-identical to an uninterrupted run.  The
        job gets a fresh id and runs serially unless ``executor`` says
        otherwise; restored chunks count as ``resumed_chunks`` in
        ``fault_stats`` and stream first from :meth:`stream`, and new
        completions append under the checkpointed job's id, so resume
        is itself resumable.

        A ledger with no missing units runs nothing: the returned job is
        DONE immediately and ``result()`` just merges the restored
        chunks.
        """
        from repro.providers.checkpoint import load_ledger
        from repro.providers.engine import get_execution_engine
        from repro.providers.executor import resolve_backend

        job, chunks = load_ledger(checkpoint_path)
        circuits, options = job["payload"]
        options = dict(options, executor=executor, max_workers=max_workers,
                       checkpoint=checkpoint_path)
        engine = get_execution_engine()
        prepared = engine.prepare(
            resolve_backend(tuple(job["backend"])), circuits, options,
            checkpoint_id=job["job_id"],
        )
        return engine.launch(prepared, chunks)

    @staticmethod
    def _merge_group(group):
        """One experiment's outcome from its ``(plan entry, outcome)``
        pairs (see :func:`merge_chunk_outcomes`)."""
        first = group[0][0]
        return merge_chunk_outcomes(
            first["name"], [outcome for _entry, outcome in group],
            first["chunks"],
        )

    def _merge_plan(self, full) -> list:
        """Merge per-chunk outcomes into per-experiment results, in
        first-appearance order — identical to the submitted circuit
        order."""
        groups: dict = {}
        for entry, outcome in zip(self._plan, full):
            groups.setdefault(entry["experiment_index"], []).append(
                (entry, outcome)
            )
        return [self._merge_group(group) for group in groups.values()]

    def _finalize(self, full):
        """Merge, build, and (when final) cache the job's Result."""
        outcomes = self._merge_plan(full)
        result = Result(self._backend.name(), self.job_id, outcomes)
        if any(
            outcome.status in (JobStatus.INCOMPLETE, JobStatus.CANCELLED)
            for outcome in outcomes
        ):
            # Not final (or gathered after a cancel): hand it back
            # without caching so the job stays collectable.
            return result
        self._result = result
        self._trace.finalize(self.fault_stats)
        return result

    def result(self, timeout=None, partial=False):
        """Collect the :class:`~repro.providers.result.Result` (blocking).

        Raises :class:`BackendError` if the job was cancelled and
        :class:`~repro.exceptions.JobTimeoutError` past the deadline —
        unless ``partial=True``, which instead returns whatever has
        finished: completed experiments are collectable through the
        normal accessors, the rest appear as CANCELLED/INCOMPLETE
        placeholder entries, and ``result.partial`` is True.  A partial
        result with INCOMPLETE entries is never cached, so a later
        ``result()`` call picks up the still-running experiments.

        Shot-chunked experiments are merged here: per-chunk counts are
        added exactly (:meth:`~repro.providers.result.Counts.merge`), so
        the merged histogram is bit-identical no matter how the chunks
        were scheduled.  A cancelled or partially-collected chunked
        experiment keeps the counts of every chunk that finished.

        Individual experiment failures do not raise here — they surface
        as ERROR entries in the result (and through the accessors for
        that experiment only).
        """
        if self._result is None:
            with self._trace.stage("collect"):
                full = self._dispatch.collect(timeout=timeout,
                                              partial=partial)
                self._trace.merge_outcomes(full)
            return self._finalize(full)
        return self._result

    def stream(self):
        """Yield incremental results as the job executes (generator).

        Events are dictionaries.  Each completed dispatch unit yields a
        ``chunk`` event::

            {"type": "chunk", "experiment": name, "experiment_index": i,
             "chunk": j, "total_chunks": k, "status": "DONE",
             "shots": n, "counts": {...} | None, "resumed": False}

        and once all of an experiment's chunks are in, an ``experiment``
        event follows with the merged
        :class:`~repro.providers.result.ExperimentResult` under
        ``"result"``.  Unchunked experiments emit one of each.  On a
        resumed job, checkpoint-restored chunks stream first (with
        ``"resumed": True``).  ``result()`` after exhausting the stream
        returns the cached result without re-running anything; abandoning
        the stream mid-way keeps every delivered chunk, and a
        ``cancel()`` between chunks ends the stream with delivered
        results intact.
        """
        if self._result is not None:
            for index, outcome in enumerate(self._result.results):
                yield self._experiment_event(index, outcome)
            return
        plan = self._plan
        full = [None] * len(plan)
        remaining = {}
        for entry in plan:
            key = entry["experiment_index"]
            remaining[key] = remaining.get(key, 0) + 1

        def deliver(position, outcome):
            entry = plan[position]
            full[position] = outcome
            events = [self._chunk_event(
                entry["name"], entry["experiment_index"], entry["chunk"],
                entry["chunks"], outcome,
            )]
            key = entry["experiment_index"]
            remaining[key] -= 1
            if remaining[key] == 0:
                group = [
                    (plan[i], full[i]) for i in range(len(plan))
                    if plan[i]["experiment_index"] == key
                ]
                events.append(
                    self._experiment_event(key, self._merge_group(group))
                )
            return events

        for position, outcome in self._dispatch.iter_outcomes():
            for event in deliver(position, outcome):
                yield event
        if all(outcome is not None for outcome in full):
            self._trace.merge_outcomes(full)
            self._finalize(full)

    @staticmethod
    def _chunk_event(name, experiment_index, chunk, chunks, outcome):
        data = outcome.data if isinstance(outcome.data, dict) else {}
        return {
            "type": "chunk",
            "experiment": name,
            "experiment_index": experiment_index,
            "chunk": 0 if chunk is None else chunk,
            "total_chunks": chunks,
            "status": outcome.status,
            "shots": outcome.shots,
            "counts": data.get("counts"),
            "resumed": outcome.resumed,
        }

    @staticmethod
    def _experiment_event(experiment_index, outcome):
        return {
            "type": "experiment",
            "experiment": outcome.circuit_name,
            "experiment_index": experiment_index,
            "status": outcome.status,
            "total_chunks": getattr(outcome, "chunks", 1),
            "completed_chunks": getattr(outcome, "completed_chunks", 1),
            "result": outcome,
        }

    @property
    def fault_stats(self) -> dict:
        """The job's fault/retry ledger, aggregated from its own units.

        Accounts for every attempt (retries included), total backoff
        seconds, injected faults, the executor fallback taken when a
        process pool broke, failed experiments, and the shot-chunk tallies
        (``total_chunks`` / ``completed_chunks`` / ``resumed_chunks`` —
        a cancelled streaming job reports how many chunks it delivered).
        It always reads the dispatch's finished units (restored ones
        included), before and after collection alike, so a unit's entries
        never change once it has finished; ``total_chunks`` comes from
        the dispatch plan.
        """
        from repro.providers.retry import aggregate_fault_stats

        stats = aggregate_fault_stats(self._dispatch.finished_outcomes(),
                                      self._dispatch.fallbacks)
        layout = {
            entry["experiment_index"]: entry["chunks"] for entry in self._plan
        }
        stats["total_chunks"] = sum(layout.values())
        return stats

    def trace(self):
        """The job's :class:`~repro.telemetry.trace.Trace`.

        Requires tracing to have been enabled
        (:func:`repro.telemetry.enable_tracing`) before the job was
        submitted; raises :class:`BackendError` otherwise.  Before the
        result is collected the trace holds the spans recorded so far;
        after collection it is the complete connected tree — worker
        spans included, whichever executor ran them.
        """
        return self._trace.trace()

    @property
    def job_trace(self):
        """The job's :class:`~repro.telemetry.jobtrace.JobTrace` hub."""
        return self._trace

    def status(self) -> str:
        """Current :class:`JobStatus` constant."""
        state = self._dispatch.status()
        if state == JobStatus.DONE:
            # All experiments have finished, so collecting is instant; the
            # terminal state depends on whether any of them failed.
            if not self.result().success:
                return JobStatus.ERROR
        return state

    def cancel(self) -> bool:
        """Stop experiments that have not started; True if any were."""
        return self._dispatch.cancel()

    def backend(self):
        """The backend that runs this job."""
        return self._backend

    def __repr__(self):
        return (
            f"Job({self.job_id}, backend={self._backend.name()!r}, "
            f"status={self.status()})"
        )


class BaseBackend:
    """Common backend behaviour: the assemble -> schedule -> run -> collect
    pipeline."""

    def __init__(self, configuration: BackendConfiguration):
        self._configuration = configuration

    def configuration(self) -> BackendConfiguration:
        """Static backend description."""
        return self._configuration

    def name(self) -> str:
        """Backend name."""
        return self._configuration.backend_name

    def run(self, circuits, **options) -> Job:
        """Assemble and schedule one circuit or a list of circuits.

        Returns a :class:`Job` whose ``result()`` blocks until the batch
        completes.  Options:

        * ``shots`` (an integer, at least 1) / ``seed`` / ``memory`` /
          ``noise_model`` — forwarded to the simulator engines.  The
          batch ``seed`` is expanded into one derived seed per experiment
          at submission, so results are bit-identical on every executor.
        * ``executor`` — ``"serial"`` (default; ``"auto"`` means the
          same), ``"threads"``, or ``"processes"``.  A process pool that
          breaks mid-batch re-runs its unfinished experiments on threads.
        * ``max_workers`` — pool width for the parallel executors.
        * ``retry_policy`` — a :class:`~repro.providers.retry.RetryPolicy`
          (or kwargs dict, or False to disable) applied per experiment in
          every executor; transient failures re-run the experiment with
          its original derived seed.  Default: up to 3 attempts with
          exponential backoff.
        * ``fault_injector`` — a
          :class:`~repro.providers.faults.FaultInjector` (or FaultSpec
          list) armed on this batch for reproducible chaos testing.
        * ``shot_chunk_size`` — shots per shot-chunk (default
          :data:`~repro.qobj.assembler.DEFAULT_SHOT_CHUNK_SIZE`; 0/False
          disables chunking).  An experiment whose backend pays per
          shot (qasm and the simulated devices under gate noise, DD and
          stabilizer circuits with measurements; see
          :meth:`_splits_shots`) splits above the chunk size into
          chunks, each its own executor payload seeded by
          :func:`~repro.qobj.assembler.derive_chunk_seeds`; a single
          chunk keeps the experiment seed, so results below the chunk
          size are bit-identical to the unchunked pipeline.  Every other
          experiment draws all its shots from its own seed in one
          payload.
        * ``checkpoint`` — path of a JSON-lines journal
          (:mod:`~repro.providers.checkpoint`); the job's ``job`` record
          (its id, backend spec, and pickled circuits and run options)
          is appended at submission and every completed
          ``(experiment, chunk)`` unit as it finishes, and
          :meth:`Job.resume` prepares the job again from that record,
          re-running only the missing units.
        * ``job_trace`` — a pre-created
          :class:`~repro.telemetry.jobtrace.JobTrace` to attach this run
          to (``execute`` passes one so transpile spans join the job's
          trace); by default a fresh one is created here.
        """
        from repro.providers.engine import get_execution_engine

        return get_execution_engine().run(self, circuits, options)

    def run_pubs(self, pubs, **options) -> Job:
        """Schedule broadcast primitive unified blocs (PUBs).

        Each pub is ``(circuit, parameter_values, parameters)`` or
        ``(circuit, parameter_values, parameters, observable)``: one
        *symbolic* template circuit plus a ``(batch, num_parameters)``
        value array (columns ordered like ``parameters``).  With an
        observable (a :class:`~repro.quantum_info.pauli.PauliSumOp`) the
        backend estimates one expectation value per binding; without one,
        a qasm backend samples per-binding counts and a statevector
        backend returns per-binding states.

        The whole batch axis of a pub runs as **one** experiment, split
        into several only when ``batch * 2**n`` amplitudes exceed the
        broadcast engine's memory cap — so the executor fleet
        parallelizes across pubs/chunks.  Inside a chunk the backend runs
        one vectorized pass (:mod:`repro.simulators.batched`) when the
        template allows it, and otherwise loops over the bindings; the
        chunk's ``data["path"]`` says which.

        Determinism matches :meth:`run` exactly: the batch ``seed`` is
        expanded into one derived seed per *binding* (concatenated across
        pubs), identical to running the equivalent list of bound circuits
        through ``run(bound_circuits, seed=seed)``.  Retries re-run a
        chunk with its original per-binding seeds, so fault recovery is
        bit-identical.  ``retry_policy`` / ``fault_injector`` /
        ``executor`` / ``max_workers`` behave as in :meth:`run`, and each
        binding draws all its shots from its own seed, as its noise-free
        bound circuit does under :meth:`run`; ``noise_model`` is rejected
        (pubs are noise-free).
        """
        from repro.providers.engine import get_execution_engine

        return get_execution_engine().run_pubs(self, pubs, options)

    def _validate_batch(self, circuits) -> None:
        """Submission-time validation hook; raise to reject the batch."""

    def _splits_shots(self, circuit, options) -> bool:
        """Whether ``circuit``'s shots split into shot-chunk payloads.

        True for engines that pay per shot (qasm under gate noise, the
        DD walk, the stabilizer replay), where chunks are independent
        runs worth spreading across workers; False for the rest, which
        draw every shot from one evolved state.
        """
        return False

    def _backend_spec(self):
        """``(provider, name)`` registry key for process-pool workers, or
        None when the backend cannot be rebuilt in a fresh process (the
        process executor then runs on threads instead)."""
        return None

    def _run_experiment(self, circuit, options):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}('{self.name()}')>"
