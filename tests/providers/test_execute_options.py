"""Gap-filling tests: execute options, result payloads, DD backend details."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import BackendError
from repro.providers import Aer, IBMQ, execute
from repro.quantum_info import hellinger_fidelity
from tests.conftest import build_ghz


class TestExecuteOptions:
    def test_optimization_level_passed_to_device_transpile(self):
        circuit = build_ghz(5, measure=True)
        backend = IBMQ.get_backend("ibmqx5")
        results = {}
        for level in (0, 3):
            counts = execute(circuit, backend, shots=3000, seed=5,
                             optimization_level=level).result().get_counts()
            good = counts.get("00000", 0) + counts.get("11111", 0)
            results[level] = good / 3000
        # The portfolio level never runs more noisy gates than the naive
        # flow, so device fidelity must not regress.
        assert results[3] >= results[0] - 0.02

    def test_seed_reproducibility(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        a = execute(measured_bell, backend, shots=300,
                    seed=9).result().get_counts()
        b = execute(measured_bell, backend, shots=300,
                    seed=9).result().get_counts()
        assert a == b

    def test_memory_through_execute(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        job = execute(measured_bell, backend, shots=25, seed=1, memory=True)
        assert len(job.result().get_memory()) == 25

    def test_batch_preserves_names_on_device(self, measured_bell):
        backend = IBMQ.get_backend("ibmqx4")
        variants = [measured_bell.copy(name=f"case{i}") for i in range(2)]
        result = execute(variants, backend, shots=50, seed=2).result()
        for i in range(2):
            assert sum(result.get_counts(f"case{i}").values()) == 50


class TestUnknownRunOptions:
    """A misspelt or retired option raises, naming it, instead of running
    with its default."""

    @pytest.mark.parametrize("option", [
        {"shots_chunk_size": 1000},   # typo of shot_chunk_size
        {"shot_chunk_dispatch": True},  # a retired option
        {"elide_diagonals": False},   # a retired option
        {"sede": 5},                  # typo of seed
    ])
    def test_backend_run_refuses_unknown_options(self, measured_bell,
                                                 option):
        backend = Aer.get_backend("qasm_simulator")
        with pytest.raises(BackendError, match=next(iter(option))):
            backend.run(measured_bell, shots=3000, **option)

    def test_known_options_still_run(self, measured_bell):
        from repro.simulators.noise import NoiseModel, depolarizing_error

        noise = NoiseModel()
        noise.add_all_qubit_quantum_error(
            depolarizing_error(0.05, 1).tensor(depolarizing_error(0.05, 1)),
            ["cx"],
        )
        job = Aer.get_backend("qasm_simulator").run(
            measured_bell, shots=3000, seed=5, noise_model=noise,
            shot_chunk_size=1000, executor="serial", max_workers=1,
            memory=False, retry_policy=False, fault_injector=None,
        )
        assert job.fault_stats["total_chunks"] == 3

    def test_run_pubs_refuses_unknown_options(self):
        from repro.circuit import Parameter

        a = Parameter("a")
        template = QuantumCircuit(1, 1)
        template.ry(a, 0)
        template.measure(0, 0)
        backend = Aer.get_backend("qasm_simulator")
        with pytest.raises(BackendError, match="sede"):
            backend.run_pubs([(template, [[0.3]], [a])], shots=10, sede=5)


class TestDDBackendPayload:
    def test_statevector_included_when_small(self, bell):
        job = Aer.get_backend("dd_simulator").run(bell, shots=10, seed=1)
        data = job.result().data()
        assert "statevector" in data
        assert data["dd_nodes"] >= 1
        assert data["dd_peak_nodes"] >= data["dd_nodes"] - 1

    def test_statevector_omitted_when_large(self):
        circuit = build_ghz(22, measure=True)
        job = Aer.get_backend("dd_simulator").run(circuit, shots=10, seed=2)
        data = job.result().data()
        assert "statevector" not in data
        assert set(data["counts"]) <= {"0" * 22, "1" * 22}

    def test_dd_counts_match_dense(self, measured_bell):
        dd = Aer.get_backend("dd_simulator").run(
            measured_bell, shots=3000, seed=3
        ).result().get_counts()
        dense = Aer.get_backend("qasm_simulator").run(
            measured_bell, shots=3000, seed=4
        ).result().get_counts()
        assert hellinger_fidelity(dd, dense) > 0.99


class TestJobProtocol:
    def test_status_and_backend(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(measured_bell, shots=5, seed=1)
        result = job.result()
        assert job.status() == "DONE"
        assert job.backend() is backend
        assert job.job_id.startswith("job-")
        # The monotonic Job counter is the job id end-to-end (no more
        # id(backend)-derived Result ids that collide and repeat).
        assert result.job_id == job.job_id

    def test_result_repr(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        result = backend.run(measured_bell, shots=5, seed=1).result()
        assert "experiments=1" in repr(result)
