"""Tests for the Aer provider and its simulator backends."""

import numpy as np
import pytest

from repro.exceptions import BackendError
from repro.providers import Aer, execute
from repro.quantum_info import Statevector


class TestProvider:
    def test_backend_list(self):
        names = Aer.backends()
        assert "qasm_simulator" in names
        assert "statevector_simulator" in names
        assert "dd_simulator" in names

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            Aer.get_backend("teleporter")

    def test_configuration(self):
        backend = Aer.get_backend("qasm_simulator")
        configuration = backend.configuration()
        assert configuration.simulator
        assert configuration.backend_name == "qasm_simulator"
        assert backend.name() == "qasm_simulator"


class TestQasmBackend:
    def test_run_returns_job_with_counts(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(measured_bell, shots=500, seed=1)
        assert job.status() == "INITIALIZING"  # serial runs at first result()
        counts = job.result().get_counts()
        assert job.status() == "DONE"
        assert set(counts) == {"00", "11"}
        assert sum(counts.values()) == 500

    def test_batch_of_circuits(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        second = measured_bell.copy(name="second")
        job = backend.run([measured_bell, second], shots=100, seed=2)
        result = job.result()
        assert set(result.get_counts(measured_bell)) <= {"00", "11"}
        assert set(result.get_counts("second")) <= {"00", "11"}

    def test_ambiguous_get_counts(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run([measured_bell, measured_bell.copy(name="x")],
                          shots=10, seed=3)
        with pytest.raises(BackendError):
            job.result().get_counts()

    def test_memory_option(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        job = backend.run(measured_bell, shots=20, seed=4, memory=True)
        assert len(job.result().get_memory()) == 20

    def test_max_shots_enforced(self, measured_bell):
        backend = Aer.get_backend("qasm_simulator")
        backend.configuration().max_shots = 10
        with pytest.raises(BackendError):
            backend.run(measured_bell, shots=100)

    @pytest.mark.parametrize("shots", [2.5, 1024.0, "1024", None, True])
    def test_non_integer_shots_rejected(self, measured_bell, shots):
        """Rejected at submission, not as a TypeError per experiment."""
        backend = Aer.get_backend("qasm_simulator")
        with pytest.raises(BackendError, match="shots must be an integer"):
            backend.run(measured_bell, shots=shots)

    @pytest.mark.parametrize("shots", [0, -3])
    @pytest.mark.parametrize("name", [
        "qasm_simulator", "statevector_simulator", "density_matrix_simulator",
    ])
    def test_shots_below_one_rejected(self, measured_bell, name, shots):
        """Rejected at submission on every backend, before anything
        runs."""
        with pytest.raises(BackendError, match="shots must be at least 1"):
            Aer.get_backend(name).run(measured_bell, shots=shots)

    def test_numpy_integer_shots_accepted(self, measured_bell):
        job = Aer.get_backend("qasm_simulator").run(
            measured_bell, shots=np.int64(32), seed=1
        )
        assert sum(job.result().get_counts().values()) == 32

    def test_empty_batch(self):
        with pytest.raises(BackendError):
            Aer.get_backend("qasm_simulator").run([])


class TestOtherBackends:
    def test_statevector_backend(self, bell):
        job = Aer.get_backend("statevector_simulator").run(bell)
        state = job.result().get_statevector()
        assert isinstance(state, Statevector)
        assert state.equiv(np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_unitary_backend(self, bell):
        job = Aer.get_backend("unitary_simulator").run(bell)
        operator = job.result().get_unitary()
        assert operator.is_unitary()

    def test_density_matrix_backend_counts(self, measured_bell):
        job = Aer.get_backend("density_matrix_simulator").run(
            measured_bell, shots=200, seed=5
        )
        counts = job.result().get_counts()
        assert set(counts) <= {"00", "11"}

    def test_density_matrix_backend_state(self, bell):
        job = Aer.get_backend("density_matrix_simulator").run(bell)
        data = job.result().data()
        assert "density_matrix" in data

    def test_density_matrix_backend_evolves_once(self, measured_bell,
                                                 monkeypatch):
        # The counts are drawn from the one evolved matrix the payload
        # carries, so a measured experiment evolves exactly once.
        from repro.qobj import derive_experiment_seeds
        from repro.simulators.density_matrix_simulator import (
            DensityMatrixSimulator,
        )

        evolve = DensityMatrixSimulator.run
        calls = []

        def spy(engine, *args, **kwargs):
            calls.append(args)
            return evolve(engine, *args, **kwargs)

        monkeypatch.setattr(DensityMatrixSimulator, "run", spy)
        data = Aer.get_backend("density_matrix_simulator").run(
            measured_bell, shots=200, seed=5
        ).result().data()
        assert len(calls) == 1
        monkeypatch.undo()
        engine = DensityMatrixSimulator()
        seed = derive_experiment_seeds(5, 1)[0]
        assert data["counts"] == engine.counts(
            measured_bell, shots=200, seed=seed
        )["counts"]
        assert np.array_equal(data["density_matrix"].data,
                              engine.run(measured_bell).data)

    def test_dd_backend_counts_and_nodes(self, measured_bell):
        job = Aer.get_backend("dd_simulator").run(
            measured_bell, shots=100, seed=6
        )
        data = job.result().data()
        assert set(data["counts"]) <= {"00", "11"}
        assert data["dd_nodes"] >= 1

    def test_wrong_result_accessor(self, bell):
        job = Aer.get_backend("statevector_simulator").run(bell)
        with pytest.raises(BackendError):
            job.result().get_counts()


class TestExecuteHelper:
    def test_execute_simulator(self, measured_bell):
        job = execute(measured_bell, Aer.get_backend("qasm_simulator"),
                      shots=100, seed=7)
        assert set(job.result().get_counts()) <= {"00", "11"}

    def test_execute_requires_backend_object(self, measured_bell):
        with pytest.raises(BackendError):
            execute(measured_bell, "qasm_simulator")

    def test_lazy_top_level_exports(self):
        import repro

        assert callable(repro.execute)
        assert callable(repro.transpile)
        assert repro.Aer is Aer
        with pytest.raises(AttributeError):
            repro.not_a_thing
