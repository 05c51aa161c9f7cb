"""Job.result(timeout=...) behaviour across executors (satellite: uniform
cooperative deadlines)."""

from __future__ import annotations

import pytest

from repro.circuit.random_circuit import random_circuit
from repro.exceptions import JobTimeoutError
from repro.providers.aer import Aer


def _batch(n=3, width=10, depth=20):
    return [
        random_circuit(width, depth, seed=100 + i, measure=True)
        for i in range(n)
    ]


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
class TestTimeout:
    """A missed deadline raises the same error on every executor, and the
    job stays collectable: a later ``result()`` finishes the batch.

    Every test collects its job in the end, so no pool work outlives it
    and competes with the next test for the cores.
    """

    def test_zero_timeout_raises(self, executor):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(_batch(), shots=50, seed=1, executor=executor)
        with pytest.raises(JobTimeoutError, match="timed out"):
            job.result(timeout=1e-9)
        job.result()

    def test_collect_resumes_after_timeout(self, executor):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(_batch(), shots=50, seed=1, executor=executor)
        with pytest.raises(JobTimeoutError):
            job.result(timeout=1e-9)
        result = job.result()  # no deadline: finishes the remaining work
        assert result.success
        assert len(result.results) == 3

    def test_generous_timeout_succeeds(self, executor):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(_batch(1, width=3, depth=4), shots=10, seed=1,
                          executor=executor)
        assert job.result(timeout=60).success


class TestTimeoutPartialMode:
    """``result(timeout=..., partial=True)`` returns what finished
    instead of raising, on every executor (see also the fault-injected
    variants in tests/providers/test_faults.py)."""

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_zero_deadline_partial_is_collectable(self, executor):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(_batch(), shots=50, seed=1, executor=executor)
        partial = job.result(timeout=1e-9, partial=True)
        assert len(partial.results) == 3
        for experiment in partial.results:
            assert experiment.status in ("DONE", "INCOMPLETE")
        # Finished experiments keep real payloads even in partial mode.
        for experiment in partial.completed_experiments:
            assert sum(experiment.data["counts"].values()) == 50
        # The partial collect is not cached: the job finishes later.
        full = job.result()
        assert full.success and not full.partial
        assert len(full.results) == 3

    def test_partial_placeholders_never_ran(self):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(_batch(), shots=50, seed=1, executor="serial")
        partial = job.result(timeout=0, partial=True)
        incomplete = partial.failed_experiments
        assert incomplete and all(
            e.status == "INCOMPLETE" and e.attempts == 0
            for e in incomplete
        )
        assert job.result().success
