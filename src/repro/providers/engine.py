"""The reusable execution engine behind ``BaseBackend.run`` and the
runtime service.

Submission used to live entirely inside ``BaseBackend.run``: every call
validated, assembled, planned shot-chunks, resolved an executor, and
created the dispatch in one monolithic method — fine for a single
process, but a hosted service needs to *prepare* a job at submission
time and *launch* it later, when the scheduler picks it.  This module is
that split:

* :meth:`ExecutionEngine.prepare` turns ``(backend, circuits, options)``
  into a :class:`PreparedExecution` — validated payloads, the dispatch
  plan, the resolved executor kind, and the job's telemetry hub — without
  running anything;
* :meth:`ExecutionEngine.launch` creates the dispatch for a prepared
  execution, handing it any chunks a checkpoint restored as finished
  units (a resume is ``prepare`` + ``launch``), and returns the live
  :class:`~repro.providers.backend.Job` — the one place either is built;
* :meth:`ExecutionEngine.run` is both in sequence — exactly what
  ``BaseBackend.run`` did before the refactor, bit for bit;
* :meth:`ExecutionEngine.compile_batch` is the device-compile stage that
  ``execute`` used to inline: transpile against the backend's
  :class:`~repro.transpiler.target.Target` through the (two-tier)
  content-hash cache, with per-circuit spans on the job trace.

``BaseBackend.run``/``run_pubs`` delegate here, so direct backend
submissions and service-driven ones share one code path and stay
bit-identical.  The engine is stateless; the process-wide instance from
:func:`get_execution_engine` is what the runtime service drives.
"""

from __future__ import annotations

from repro.exceptions import BackendError
from repro.providers.executor import (
    SCHEDULING_OPTIONS,
    Dispatch,
    check_run_options,
    resolve_executor,
)


class PreparedExecution:
    """A validated, assembled, scheduled-but-not-launched batch.

    Everything :meth:`ExecutionEngine.launch` needs to create the
    dispatch: the target backend, the ``(circuit snapshot, config)``
    payload list, the plan (one entry per payload, in payload order —
    ``{"experiment_index", "name", "chunk": int|None, "chunks"}``), the
    resolved executor ``kind``, and the
    :class:`~repro.telemetry.jobtrace.JobTrace` the job will record into.
    """

    __slots__ = ("backend", "payloads", "plan", "kind", "max_workers",
                 "job_trace")

    def __init__(self, backend, payloads, plan, kind, max_workers,
                 job_trace):
        self.backend = backend
        self.payloads = payloads
        self.plan = plan
        self.kind = kind
        self.max_workers = max_workers
        self.job_trace = job_trace


class ExecutionEngine:
    """Builds, plans, and launches experiment batches on any backend."""

    @staticmethod
    def _begin(backend, circuits, options):
        """The submission preamble of :meth:`prepare` and
        :meth:`prepare_pubs`; returns ``(shots, kind, engine_options,
        job_trace)``.

        Refuses unknown options and a ``shots`` that is not an integer
        from 1 to the backend maximum, runs the backend's batch validation,
        resolves the executor kind, splits the engine options from the
        scheduling ones, normalizes the fault-tolerance knobs, and takes
        the job's trace (or starts one).
        """
        from repro.providers.faults import resolve_injector
        from repro.providers.retry import resolve_retry_policy

        check_run_options(options, backend=backend)
        shots = options.get("shots", 1024)
        backend._validate_batch(circuits)
        kind = resolve_executor(options.get("executor"))
        engine_options = {
            key: value
            for key, value in options.items()
            if key not in SCHEDULING_OPTIONS
        }
        # Normalize the fault-tolerance knobs once here, so every worker
        # (including process-pool ones, via pickled configs) agrees on the
        # retry budget and the seeded fault schedule.
        engine_options["retry_policy"] = resolve_retry_policy(
            options.get("retry_policy")
        )
        engine_options["fault_injector"] = resolve_injector(
            options.get("fault_injector")
        )
        job_trace = options.get("job_trace")
        if job_trace is None:
            from repro.providers.backend import Job
            from repro.telemetry.jobtrace import JobTrace

            job_trace = JobTrace(Job.reserve_id(), backend.name())
        return shots, kind, engine_options, job_trace

    @staticmethod
    def _end(backend, payloads, plan, kind, options, job_trace):
        """Open the dispatch span, give each payload its span context,
        and package the batch."""
        job_trace.dispatch_started(kind, len(payloads))
        for seq, ((_circuit, config), entry) in enumerate(
            zip(payloads, plan)
        ):
            context = job_trace.experiment_context(
                entry["experiment_index"], entry["name"],
                chunk=entry["chunk"], chunks=entry["chunks"], seq=seq,
            )
            if context is not None:
                config["span_context"] = context
        return PreparedExecution(backend, payloads, plan, kind,
                                 options.get("max_workers"), job_trace)

    def prepare(self, backend, circuits, options,
                checkpoint_id=None) -> PreparedExecution:
        """Validate, assemble, and plan a circuit batch (runs nothing).

        This is the submission half of ``BaseBackend.run``: it derives
        per-experiment (and per-chunk) seeds, snapshots each circuit (so
        editing it afterwards leaves the job as submitted), builds the
        payload list and dispatch plan, resolves the executor kind, and
        injects span contexts — leaving only dispatch creation to
        :meth:`launch`.  Each payload of a ``checkpoint`` job appends its
        chunk record under ``checkpoint_id`` (default: the job's own id).
        """
        from repro.qobj.assembler import (
            derive_chunk_seeds,
            derive_experiment_seeds,
            flatten_circuit,
            shot_chunk_bounds,
        )

        if not isinstance(circuits, (list, tuple)):
            circuits = [circuits]
        if not circuits:
            raise BackendError("no circuits to run")
        shots, kind, engine_options, job_trace = self._begin(
            backend, circuits, options
        )
        max_qubits = max(circuit.num_qubits for circuit in circuits)
        with job_trace.stage("assemble", attributes={
            "experiments": len(circuits), "shots": shots,
            "max_qubits": max_qubits,
        }):
            seeds = derive_experiment_seeds(options.get("seed"),
                                            len(circuits))
            snapshots = [flatten_circuit(circuit) for circuit in circuits]
        chunk_size = options.get("shot_chunk_size")
        payloads = []
        plan = []
        for index, (circuit, exp_seed) in enumerate(zip(snapshots, seeds)):
            bounds = (
                shot_chunk_bounds(shots, chunk_size)
                if backend._splits_shots(circuit, options)
                else [(0, shots)]
            )
            chunked = len(bounds) > 1
            # A single chunk keeps the experiment seed and the unchunked
            # payload; the chunks of one experiment share its snapshot,
            # which no engine mutates.
            for chunk, ((start, stop), seed) in enumerate(
                zip(bounds, derive_chunk_seeds(exp_seed, len(bounds)))
            ):
                config = dict(engine_options, seed=seed)
                if chunked:
                    config["shots"] = stop - start
                    config["shot_chunk"] = {
                        "index": chunk, "total": len(bounds),
                        "start": start, "stop": stop,
                    }
                payloads.append((circuit, config))
                plan.append({
                    "experiment_index": index, "name": circuit.name,
                    "chunk": chunk if chunked else None,
                    "chunks": len(bounds),
                })
        checkpoint = options.get("checkpoint")
        if checkpoint:
            for (_circuit, config), entry in zip(payloads, plan):
                config["checkpoint"] = {
                    "path": checkpoint,
                    "job_id": checkpoint_id or job_trace.job_id,
                    "experiment": entry["experiment_index"],
                    "chunk": entry["chunk"] or 0,
                }
        return self._end(backend, payloads, plan, kind, options, job_trace)

    def launch(self, prepared: PreparedExecution, restored=None):
        """Create the dispatch for a prepared batch; returns the live Job.

        The dispatch gets every payload.  The ``restored`` checkpoint
        outcomes (see :func:`~repro.providers.checkpoint.restore`) join
        it as finished units, marked ``resumed``, where their recorded
        ``chunk`` descriptor is the payload's own ``shot_chunk`` (both
        None for an unchunked unit); only the other units run, so a
        record cut under another layout re-runs instead of merging in.
        """
        from repro.providers.backend import Job

        restored = restored or {}
        finished = {}
        for position, (entry, (_circuit, config)) in enumerate(
            zip(prepared.plan, prepared.payloads)
        ):
            outcome = restored.get(
                (entry["experiment_index"], entry["chunk"] or 0)
            )
            if outcome is not None \
                    and outcome.chunk == config.get("shot_chunk"):
                outcome.resumed = True
                finished[position] = outcome
        dispatch = Dispatch(prepared.backend, prepared.payloads,
                            prepared.kind, prepared.max_workers,
                            prepared.job_trace, finished)
        return Job(prepared.backend, dispatch, prepared.plan,
                   prepared.job_trace)

    def run(self, backend, circuits, options):
        """Prepare and launch in one step (the ``BaseBackend.run`` path);
        a ``checkpoint`` journal gets the job's ``job`` record first."""
        prepared = self.prepare(backend, circuits, options)
        if options.get("checkpoint"):
            from repro.providers.checkpoint import write_job

            write_job(options["checkpoint"], prepared.job_trace.job_id,
                      backend._backend_spec(), circuits, options)
        return self.launch(prepared)

    def prepare_pubs(self, backend, pubs, options) -> PreparedExecution:
        """Validate and plan a broadcast-pub batch (runs nothing).

        The pub twin of :meth:`prepare`: normalizes the pub tuples,
        snapshots each symbolic template, derives one seed per *binding*
        (concatenated across pubs, exactly the bound-circuit layout),
        splits each batch axis at the broadcast engine's memory cap, and
        resolves the executor.  Every payload is one plan entry, an
        unchunked experiment: each binding draws all its shots from its
        own seed.
        """
        import numpy as np

        from repro.qobj.assembler import (
            derive_experiment_seeds,
            flatten_circuit,
        )
        from repro.simulators.batched import broadcast_chunk_bounds

        if not isinstance(pubs, (list, tuple)):
            pubs = [pubs]
        if not pubs:
            raise BackendError("no pubs to run")
        if options.get("noise_model") is not None:
            raise BackendError(
                "pubs run noise-free and take no noise model; bind the "
                "circuits and use run() instead"
            )
        if options.get("checkpoint"):
            raise BackendError(
                "pubs jobs do not checkpoint; bind the circuits and use "
                "run() for a resumable job"
            )
        normalized = []
        for pub in pubs:
            if not isinstance(pub, (list, tuple)) or len(pub) not in (3, 4):
                raise BackendError(
                    "each pub must be (circuit, parameter_values, "
                    "parameters[, observable])"
                )
            circuit, values, parameters = pub[0], pub[1], pub[2]
            observable = pub[3] if len(pub) == 4 else None
            values = np.asarray(values, dtype=float)
            if values.ndim == 1:
                values = values.reshape(1, -1)
            if values.ndim != 2 or values.shape[0] < 1:
                raise BackendError(
                    "pub parameter_values must be a non-empty "
                    "(batch, num_parameters) array"
                )
            normalized.append(
                (circuit, values, list(parameters or ()), observable)
            )
        shots, kind, engine_options, job_trace = self._begin(
            backend, [pub[0] for pub in normalized], options
        )
        engine_options["shots"] = shots
        total_bindings = sum(pub[1].shape[0] for pub in normalized)
        all_seeds = derive_experiment_seeds(
            options.get("seed"), total_bindings
        )
        payloads = []
        plan = []
        offset = 0
        with job_trace.stage("assemble", attributes={
            "pubs": len(normalized), "bindings": total_bindings,
            "shots": shots,
        }):
            for circuit, values, parameters, observable in normalized:
                batch = values.shape[0]
                template = flatten_circuit(circuit)
                for start, stop in broadcast_chunk_bounds(
                    batch, circuit.num_qubits
                ):
                    config = dict(engine_options)
                    # The chunk is the retry unit: its value rows and
                    # derived per-binding seeds ride the config, so a
                    # retried or fallback run reproduces every binding
                    # bit-identically.
                    config["broadcast"] = {
                        "values": values[start:stop],
                        "parameters": parameters,
                        "seeds": all_seeds[offset + start:offset + stop],
                        "observable": observable,
                        "binding_start": start,
                    }
                    config["seed"] = all_seeds[offset + start]
                    plan.append({
                        "experiment_index": len(payloads),
                        "name": template.name, "chunk": None, "chunks": 1,
                    })
                    # The pub's chunks share one template snapshot, which
                    # no engine mutates.
                    payloads.append((template, config))
                offset += batch
        return self._end(backend, payloads, plan, kind, options, job_trace)

    def run_pubs(self, backend, pubs, options):
        """Prepare and launch a pub batch (the ``run_pubs`` path)."""
        return self.launch(self.prepare_pubs(backend, pubs, options))

    def compile_batch(self, backend, circuits, job_trace, *,
                      optimization_level=1, transpile_cache=True):
        """Compile circuits for a device backend (``execute``'s old inline
        stage).

        Simulator backends take circuits as-is; device backends compile
        each one against a :class:`~repro.transpiler.target.Target` built
        from the backend's configuration and calibrations, with a
        ``transpile`` span (and its per-pass children) per circuit on the
        job's trace.  The run seed never reaches the router, so a circuit
        compiles the same way for every run seed, and a resumed job
        compiles to the circuits its first run had.  Results are memoised
        in the content-hash transpile cache, so repeated runs and warm
        sessions skip the pass pipeline entirely (and, where its disk
        tier is enabled, so do repeated processes).
        """
        if backend.configuration().simulator:
            return list(circuits)
        from repro.transpiler.preset import transpile as _transpile
        from repro.transpiler.target import Target

        target = Target.from_backend(backend)
        prepared = []
        for circuit in circuits:
            with job_trace.stage("transpile", attributes={
                "circuit": circuit.name,
                "width": circuit.num_qubits,
                "depth_in": circuit.depth(),
            }) as span:
                mapped = _transpile(
                    circuit,
                    target=target,
                    optimization_level=optimization_level,
                    transpile_cache=transpile_cache,
                )
                span.set_attribute("depth_out", mapped.depth())
            mapped.name = circuit.name
            prepared.append(mapped)
        return prepared


#: The stateless process-wide engine instance.
_ENGINE = ExecutionEngine()


def get_execution_engine() -> ExecutionEngine:
    """The process-wide :class:`ExecutionEngine`."""
    return _ENGINE
