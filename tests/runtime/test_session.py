"""Sessions: warm-backend pinning, backend-compatible surface,
primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import Parameter, QuantumCircuit
from repro.exceptions import BackendError
from repro.providers import Aer
from repro.runtime import RuntimeService
from repro.transpiler import clear_transpile_cache, get_transpile_cache


def _bell(name="bell"):
    circuit = QuantumCircuit(2, 2, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


class TestSession:
    def test_session_run_matches_direct_run(self, tmp_path):
        reference = Aer.get_backend("qasm_simulator").run(
            _bell(), shots=800, seed=9,
        ).result().get_counts()
        with RuntimeService(tmp_path) as service:
            with service.session() as session:
                job = session.run(_bell(), shots=800, seed=9)
                assert job.result(timeout=30).get_counts() == reference

    def test_session_pins_one_warm_backend_instance(self, tmp_path):
        with RuntimeService(tmp_path) as service:
            session_a = service.session(backend="qasm_simulator")
            session_b = service.session(backend="qasm_simulator")
            # One warm instance per backend name, shared across sessions
            # and across every job the service runs on it.
            assert session_a.backend is session_b.backend
            assert session_a.backend is service.backend("qasm_simulator")
            assert session_a.session_id != session_b.session_id

    def test_session_quacks_like_a_backend(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            session = service.session()
            assert session.name() == "qasm_simulator"
            assert session.configuration().backend_name == "qasm_simulator"

    def test_closed_session_rejects_submissions(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            session = service.session()
            session.close()
            with pytest.raises(BackendError):
                session.run(_bell(), shots=10)

    def test_session_run_refuses_unknown_options(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            session = service.session()
            with pytest.raises(BackendError, match="shots_chunk_size"):
                session.run(_bell(), shots=10, shots_chunk_size=4)
            # Compile knobs are a circuits job's own; a refused
            # submission leaves no job behind.
            session.run(_bell(), shots=10, optimization_level=0)
            with pytest.raises(BackendError, match="optimization_level"):
                session.run_pubs([], optimization_level=0)
            # ``cache_namespace`` is no option of any job.
            with pytest.raises(BackendError, match="cache_namespace"):
                session.run_pubs([], cache_namespace="a")
            assert len(service.jobs()) == 1

    def test_session_jobs_listing(self, tmp_path):
        with RuntimeService(tmp_path, autostart=False) as service:
            session = service.session(tenant="alice")
            other = service.session(tenant="alice")
            session.run(_bell(), shots=10, seed=1)
            other.run(_bell(), shots=10, seed=2)
            session.run(_bell(), shots=10, seed=3)
            assert len(session.jobs()) == 2
            assert all(
                job.session_id == session.session_id
                for job in session.jobs()
            )

    def test_session_jobs_share_the_transpile_cache(self, tmp_path):
        """Two identical device-backend jobs in one session compile
        once."""
        clear_transpile_cache()
        circuit = QuantumCircuit(2, 2, name="warmed")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        with RuntimeService(tmp_path) as service:
            with service.session(backend="ibmqx2",
                                 provider="ibmq") as session:
                first = session.run(circuit, shots=50, seed=1)
                first.result(timeout=30)
                before = get_transpile_cache().stats()["hits"]
                second = session.run(circuit, shots=50, seed=1)
                second.result(timeout=30)
                after = get_transpile_cache().stats()["hits"]
        assert after > before

    def test_sampler_v2_runs_over_a_session(self, tmp_path):
        from repro.primitives import SamplerV2

        theta = Parameter("theta")
        template = QuantumCircuit(1, 1, name="rot")
        template.rx(theta, 0)
        template.measure(0, 0)
        values = np.array([[0.0], [np.pi]])

        reference = SamplerV2(
            Aer.get_backend("qasm_simulator"), seed=11,
        ).run([(template, values, [theta])], shots=300).result()

        with RuntimeService(tmp_path) as service:
            with service.session() as session:
                sampler = SamplerV2(session, seed=11)
                job = sampler.run([(template, values, [theta])], shots=300)
                result = job.result(timeout=30)
        for ours, theirs in zip(result, reference):
            assert ours.data.counts == theirs.data.counts

    def test_idle_qubit_estimator_pub_is_one_service_job(self, tmp_path):
        from repro.algorithms.expectation import ExpectationEstimator
        from repro.primitives import EstimatorV2
        from repro.qobj.assembler import derive_experiment_seeds
        from repro.quantum_info.pauli import PauliSumOp

        a = Parameter("a")
        template = QuantumCircuit(3)
        template.h(0)
        template.ry(a, 1)  # qubit 2 idle: the per-binding loop path
        hamiltonian = PauliSumOp.from_dict({"ZZI": 0.5, "IIZ": 0.3})
        values = np.linspace(0.1, 1.3, 4).reshape(4, 1)
        references = [
            ExpectationEstimator(
                hamiltonian, mode="shots", shots=200, seed=seed,
            ).estimate(template.bind_parameters({a: row[0]}))
            for row, seed in zip(values, derive_experiment_seeds(11, 4))
        ]

        with RuntimeService(tmp_path) as service:
            with service.session() as session:
                estimator = EstimatorV2(session, mode="shots", seed=11)
                job = estimator.run(
                    [(template, hamiltonian, values, [a])], shots=200
                )
                result = job.result(timeout=30)
            assert len(service.jobs()) == 1
        assert result[0].metadata["path"] == "loop"
        assert list(result[0].data.evs) == references
