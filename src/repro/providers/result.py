"""Execution results: counts histograms and the Result container."""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError


def _sum_by_key(keys, values) -> dict:
    """Sum ``values`` grouped by ``keys`` (numpy-backed histogram add).

    The shared core of :meth:`Counts.merge` and :meth:`Counts.marginal`:
    one ``np.unique`` over the key strings plus an ``np.add.at`` scatter
    replaces the per-entry dict updates, which dominate when merging
    many-chunk histograms with wide supports.
    """
    key_array = np.asarray(keys, dtype=str)
    value_array = np.asarray(values)
    if not np.issubdtype(value_array.dtype, np.integer):
        value_array = value_array.astype(float)
    unique, inverse = np.unique(key_array, return_inverse=True)
    totals = np.zeros(len(unique), dtype=value_array.dtype)
    np.add.at(totals, inverse, value_array)
    return dict(zip(unique.tolist(), totals.tolist()))


class Counts(dict):
    """A measurement histogram keyed by bitstring (clbit 0 rightmost)."""

    def most_frequent(self) -> str:
        """The most common outcome."""
        if not self:
            raise BackendError("no counts recorded")
        return max(self, key=self.get)

    def probabilities(self) -> dict:
        """Normalized outcome frequencies."""
        total = sum(self.values())
        return {key: value / total for key, value in self.items()}

    def int_outcomes(self) -> dict:
        """Counts keyed by integer outcome values."""
        return {int(key, 2): value for key, value in self.items()}

    @classmethod
    def merge(cls, histograms) -> "Counts":
        """Add histograms key-wise (numpy-backed).

        The chunk-merge primitive of the collect path: summing the
        per-chunk histograms of one experiment is exact integer
        addition, so merged chunked counts are bit-identical to the
        whole-experiment run no matter how the chunks were scheduled.
        Empty histograms are skipped; merging nothing returns empty
        counts.
        """
        histograms = [h for h in histograms if h]
        if not histograms:
            return cls()
        if len(histograms) == 1:
            return cls(histograms[0])
        keys: list = []
        values: list = []
        for histogram in histograms:
            keys.extend(histogram.keys())
            values.extend(histogram.values())
        return cls(_sum_by_key(keys, values))

    def marginal(self, positions) -> "Counts":
        """Marginalize onto the given clbit positions (0 = rightmost).

        The returned keys list ``positions[-1] ... positions[0]`` left to
        right, i.e. ``positions[0]`` becomes the new bit 0.
        """
        if not self:
            return Counts()
        keys = []
        for key in self:
            bits = key[::-1]  # bits[i] = clbit i
            keys.append("".join(
                bits[p] if p < len(bits) else "0" for p in positions
            )[::-1])
        return Counts(_sum_by_key(keys, list(self.values())))


class ExperimentResult:
    """Result of one circuit's execution, including execution metadata."""

    def __init__(self, circuit_name, shots, data, status="DONE", error=None,
                 time_taken=None, seed=None, attempts=1, backoff_total=0.0,
                 faults=(), spans=()):
        self.circuit_name = circuit_name
        self.shots = shots
        #: Raw payload: may contain 'counts', 'memory', 'statevector',
        #: 'unitary', 'density_matrix', 'dd_nodes', ...
        self.data = data
        #: "DONE" or "ERROR" (also "INCOMPLETE"/"CANCELLED" for partial
        #: placeholders); a failed experiment does not abort its batch.
        self.status = status
        #: Exception text when status is not "DONE".
        self.error = error
        #: Wall-clock seconds spent on this experiment (set by the executor).
        self.time_taken = time_taken
        #: The derived per-experiment seed the engine actually used.
        self.seed = seed
        #: How many times the executor ran this experiment (retries count;
        #: 0 for placeholders that never ran).
        self.attempts = attempts
        #: Total seconds slept in retry backoff for this experiment.
        self.backoff_total = backoff_total
        #: Injected-fault log, e.g. ["transient@0", "corrupt@1"].
        self.faults = list(faults)
        #: Telemetry span dictionaries recorded where the experiment ran
        #: (empty unless tracing was enabled at submission); merged into
        #: the job's trace at collect time.
        self.spans = list(spans)
        #: Shot-chunk bookkeeping.  A dispatch unit's outcome carries the
        #: dispatch-time ``chunk`` descriptor (index/start/stop) when it
        #: is one chunk of its experiment, and ``resumed`` when it is a
        #: finished unit a checkpoint restored; ``job.fault_stats`` is
        #: aggregated from these unit outcomes.  For a merged experiment,
        #: ``chunks`` is the layout size and ``completed_chunks``/
        #: ``resumed_chunks`` count the chunks that finished / were
        #: restored.
        self.chunk = None
        self.resumed = False
        self.chunks = 1
        self.completed_chunks = 1 if status == "DONE" else 0
        self.resumed_chunks = 0

    @property
    def success(self) -> bool:
        """Whether this experiment completed without error."""
        return self.error is None

    def __repr__(self):
        if not self.success:
            return (
                f"ExperimentResult({self.circuit_name!r}, status=ERROR, "
                f"error={self.error!r})"
            )
        return (
            f"ExperimentResult({self.circuit_name!r}, shots={self.shots}, "
            f"keys={sorted(self.data)})"
        )


def unit_faults(outcome) -> list:
    """A unit outcome's fault log, each entry prefixed ``c<chunk>:`` when
    the unit is one shot-chunk of its experiment."""
    if outcome.chunk is None:
        return list(outcome.faults)
    return [f"c{outcome.chunk['index']}:{entry}" for entry in outcome.faults]


def merge_chunk_outcomes(name, outcomes, total_chunks):
    """Merge one experiment's shot-chunk outcomes into one result.

    ``outcomes`` are the per-chunk :class:`ExperimentResult` entries of a
    ``total_chunks`` layout, in chunk-index order (restored chunks
    included); the one outcome of an unchunked experiment
    (``total_chunks == 1``) passes through.  Counts are added with
    :meth:`Counts.merge` — exact integer addition, so the merged
    histogram is bit-identical to an unchunked run — and memory lists
    concatenate in chunk order.  Non-shot payload keys (a DD chunk's
    node counts, say) are identical across chunks and taken from the
    first completed one.  ``attempts`` and ``backoff_total`` add up and
    the ``faults`` concatenate, each entry prefixed ``c<chunk>:`` (see
    :func:`unit_faults`).  Retry counts and telemetry spans stay on the
    unit outcomes, which ``job.fault_stats`` and the job trace read.

    Status: DONE only when every chunk of the layout completed; a chunk
    that failed makes the merge ERROR; otherwise a cancelled or
    incomplete chunk makes it CANCELLED/INCOMPLETE — with the counts
    accumulated so far still attached, which is what lets a cancelled
    streaming job keep its already-delivered chunks.
    """
    outcomes = list(outcomes)
    if total_chunks == 1:
        return outcomes[0]
    done = [o for o in outcomes if o.status == "DONE"]
    data: dict = {}
    counts_parts = [
        o.data["counts"] for o in done
        if isinstance(o.data, dict) and "counts" in o.data
    ]
    if counts_parts:
        data["counts"] = Counts.merge(counts_parts)
    memory_parts = [
        o.data["memory"] for o in done
        if isinstance(o.data, dict) and "memory" in o.data
    ]
    if memory_parts:
        memory: list = []
        for part in memory_parts:
            memory.extend(part)
        data["memory"] = memory
    shots = sum(o.shots or 0 for o in done)
    data["shots"] = shots
    for outcome in done:
        if not isinstance(outcome.data, dict):
            continue
        for key, value in outcome.data.items():
            if key not in data:
                data[key] = value
    errors = [o for o in outcomes if o.status == "ERROR"]
    cancelled = [o for o in outcomes if o.status == "CANCELLED"]
    if len(done) == total_chunks and not errors:
        status, error = "DONE", None
    elif errors:
        status = "ERROR"
        first = errors[0]
        index = first.chunk["index"] if first.chunk else "?"
        error = (
            f"chunk {index}/{total_chunks} failed: {first.error} "
            f"({len(done)}/{total_chunks} chunks completed)"
        )
    elif cancelled:
        status = "CANCELLED"
        error = f"cancelled after {len(done)}/{total_chunks} chunks"
    else:
        status = "INCOMPLETE"
        error = f"{len(done)}/{total_chunks} chunks completed"
    merged = ExperimentResult(name, shots, data, status=status, error=error)
    times = [o.time_taken for o in outcomes if o.time_taken is not None]
    merged.time_taken = sum(times) if times else None
    merged.attempts = sum(o.attempts for o in outcomes)
    merged.backoff_total = sum(o.backoff_total for o in outcomes)
    merged.faults = [entry for o in outcomes for entry in unit_faults(o)]
    merged.chunks = total_chunks
    merged.completed_chunks = len(done)
    merged.resumed_chunks = sum(1 for o in outcomes if o.resumed)
    return merged


class Result:
    """Results for a batch of circuits run on one backend."""

    def __init__(self, backend_name, job_id, experiment_results):
        self.backend_name = backend_name
        self.job_id = job_id
        self._results = list(experiment_results)

    @property
    def success(self) -> bool:
        """Whether every experiment in the batch completed without error."""
        return all(experiment.success for experiment in self._results)

    @property
    def partial(self) -> bool:
        """Whether this result is missing any successful experiment.

        A partial result is still collectable: the accessors work for
        every completed experiment and raise only for the failed,
        incomplete, or cancelled ones.  Partial results arise from
        exhausted retries, ``result(timeout=..., partial=True)`` after a
        deadline, and ``result(partial=True)`` after a cancel.
        """
        return any(
            experiment.status != "DONE" for experiment in self._results
        )

    @property
    def failed_experiments(self) -> list:
        """The non-successful :class:`ExperimentResult` entries."""
        return [
            experiment for experiment in self._results
            if experiment.status != "DONE"
        ]

    @property
    def completed_experiments(self) -> list:
        """The successful :class:`ExperimentResult` entries."""
        return [
            experiment for experiment in self._results
            if experiment.status == "DONE"
        ]

    def _lookup(self, circuit=None) -> ExperimentResult:
        if circuit is None:
            if len(self._results) != 1:
                raise BackendError(
                    "multiple experiments in result; specify a circuit"
                )
            experiment = self._results[0]
        else:
            name = circuit if isinstance(circuit, str) else circuit.name
            for candidate in self._results:
                if candidate.circuit_name == name:
                    experiment = candidate
                    break
            else:
                raise BackendError(f"no result for circuit '{name}'")
        if not experiment.success:
            raise BackendError(
                f"experiment '{experiment.circuit_name}' failed: "
                f"{experiment.error}"
            )
        return experiment

    def get_counts(self, circuit=None) -> Counts:
        """Measurement counts for one circuit."""
        experiment = self._lookup(circuit)
        if "counts" not in experiment.data:
            raise BackendError("this result holds no counts")
        return Counts(experiment.data["counts"])

    def get_memory(self, circuit=None) -> list:
        """Per-shot outcomes (requires ``memory=True`` at run time)."""
        experiment = self._lookup(circuit)
        if "memory" not in experiment.data:
            raise BackendError("memory was not requested")
        return list(experiment.data["memory"])

    def get_statevector(self, circuit=None):
        """Final statevector (statevector backend only)."""
        experiment = self._lookup(circuit)
        if "statevector" not in experiment.data:
            raise BackendError("this result holds no statevector")
        return experiment.data["statevector"]

    def get_unitary(self, circuit=None):
        """Circuit unitary (unitary backend only)."""
        experiment = self._lookup(circuit)
        if "unitary" not in experiment.data:
            raise BackendError("this result holds no unitary")
        return experiment.data["unitary"]

    def data(self, circuit=None) -> dict:
        """The raw data payload."""
        return dict(self._lookup(circuit).data)

    @property
    def results(self) -> list:
        """All experiment results."""
        return list(self._results)

    def __repr__(self):
        return (
            f"Result(backend={self.backend_name!r}, job={self.job_id!r}, "
            f"experiments={len(self._results)})"
        )
