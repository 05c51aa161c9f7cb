"""The primitive job: a ``run_pubs`` provider job plus pub-level collation."""

from __future__ import annotations

from repro.exceptions import BackendError
from repro.primitives.containers import PrimitiveResult
from repro.providers.executor import JobStatus
from repro.simulators.batched import broadcast_chunk_bounds


class PrimitiveJob:
    """Wraps the provider :class:`~repro.providers.backend.Job` of a
    ``run_pubs`` submission.

    ``result()`` collects the underlying experiment outcomes and regroups
    them into one :class:`~repro.primitives.containers.PubResult` per
    submitted pub (merging memory-cap chunks back along the batch axis).
    Every pub runs through that one job, so retries, fault stats, traces
    and service scheduling apply to all of them.
    """

    def __init__(self, job, collate):
        self._job = job
        self._collate = collate
        self._result = None

    def result(self, timeout=None):
        """Block for and return the :class:`PrimitiveResult`."""
        if self._result is None:
            self._result = self._collate(self._job.result(timeout=timeout))
        return self._result

    def stream(self):
        """Yield the provider job's incremental events (see ``Job.stream``).

        Each memory-cap chunk of the pub batch surfaces as its own
        experiment event the moment its worker finishes; call
        :meth:`result` afterwards for the collated pub-level view.
        """
        yield from self._job.stream()

    def status(self) -> str:
        """Provider job status."""
        return self._job.status()

    def cancel(self) -> bool:
        """Cancel the underlying job if it has not started."""
        return self._job.cancel()

    @property
    def provider_job(self):
        """The wrapped provider job."""
        return self._job

    @property
    def fault_stats(self) -> dict:
        """The provider job's fault/retry ledger."""
        return self._job.fault_stats

    def trace(self):
        """The provider job's telemetry trace (see ``Job.trace``)."""
        return self._job.trace()

    def __repr__(self):
        return f"PrimitiveJob({self._job!r})"


def submit_pubs(backend, pubs, pub_tuples, key, make_result, metadata,
                **run_options) -> PrimitiveJob:
    """Submit coerced ``pubs`` as one ``backend.run_pubs`` job.

    ``pub_tuples`` are the provider-level pub tuples, in ``pubs`` order.
    At collation each pub's chunk outcomes are concatenated along the
    batch axis (their ``data[key]`` rows), and ``make_result(pub, rows,
    pub_metadata)`` builds its
    :class:`~repro.primitives.containers.PubResult`; ``pub_metadata``
    holds ``num_bindings``, ``chunks`` and the ``path`` the backend took.
    """
    chunk_counts = [
        len(broadcast_chunk_bounds(pub.batch_size, pub.circuit.num_qubits))
        for pub in pubs
    ]
    job = backend.run_pubs(pub_tuples, **run_options)

    def collate(result):
        raise_on_error(result)
        pub_results = []
        cursor = 0
        for pub, chunks in zip(pubs, chunk_counts):
            outcomes = result.results[cursor:cursor + chunks]
            cursor += chunks
            rows = []
            for outcome in outcomes:
                rows.extend(outcome.data[key])
            pub_results.append(make_result(pub, rows, {
                "num_bindings": pub.batch_size, "chunks": chunks,
                "path": outcomes[0].data["path"],
            }))
        return PrimitiveResult(pub_results, metadata)

    return PrimitiveJob(job, collate)


def raise_on_error(result) -> None:
    """Surface the first failed experiment of a provider result."""
    if result.success:
        return
    for outcome in result.results:
        if outcome.status == JobStatus.ERROR:
            raise BackendError(
                f"primitive experiment '{outcome.circuit_name}' failed: "
                f"{outcome.error}"
            )
    raise BackendError("primitive job failed")
