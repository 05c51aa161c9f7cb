"""The Aer provider: simulator backends behind the Qiskit-style API.

Mirrors the paper's Section IV usage::

    job = execute(measured_circ, backend=Aer.get_backend('qasm_simulator'))
    counts = job.result().get_counts()
"""

from __future__ import annotations

from repro.exceptions import BackendError
from repro.providers.backend import BackendConfiguration, BaseBackend
from repro.providers.result import ExperimentResult
from repro.qobj.assembler import derive_experiment_seeds
from repro.simulators.batched import estimate_broadcast_shots, sample_broadcast
from repro.simulators.dd_simulator import DDSimulator
from repro.simulators.density_matrix_simulator import DensityMatrixSimulator
from repro.simulators.program import Program
from repro.simulators.qasm_simulator import QasmSimulator
from repro.simulators.stabilizer_simulator import StabilizerSimulator
from repro.simulators.statevector_simulator import StatevectorSimulator
from repro.simulators.unitary_simulator import UnitarySimulator

_ALL_GATES = [
    "u1", "u2", "u3", "u", "p", "cx", "id", "x", "y", "z", "h", "s", "sdg",
    "t", "tdg", "sx", "sxdg", "rx", "ry", "rz", "cy", "cz", "ch", "swap",
    "crx", "cry", "crz", "cu1", "cu3", "rzz", "rxx", "ryy", "ccx", "cswap",
    "unitary", "diagonal",
]


class _AerBackend(BaseBackend):
    """Aer backends are registered by name, so process-pool workers can
    rebuild them from the provider registry."""

    def _backend_spec(self):
        return ("aer", self.name())


class QasmEngineBackend(BaseBackend):
    """A backend whose circuits run on :class:`QasmSimulator`.

    The ``qasm_simulator`` and the simulated devices share this run path
    and its shot-chunk rule; they differ only in :meth:`_noise`.
    """

    def __init__(self, configuration):
        super().__init__(configuration)
        self._engine = QasmSimulator()

    def _noise(self, options):
        """The noise model this run simulates under."""
        return options.get("noise_model")

    def _splits_shots(self, circuit, options):
        # Gate noise makes every shot its own noisy run (batched columns
        # or trajectories); without it one evolved state serves them all.
        noise = self._noise(options)
        return bool(circuit.num_clbits and noise is not None
                    and noise.noisy_gates)

    def _run_experiment(self, circuit, options):
        payload = self._engine.run(
            circuit,
            shots=options.get("shots", 1024),
            seed=options.get("seed"),
            noise_model=self._noise(options),
            memory=options.get("memory", False),
        )
        return ExperimentResult(circuit.name, payload["shots"], payload)


class QasmSimulatorBackend(_AerBackend, QasmEngineBackend):
    """Shot-based simulator backend (optionally noisy)."""

    def __init__(self):
        super().__init__(
            BackendConfiguration(
                "qasm_simulator", 24, _ALL_GATES,
                description="shot-based statevector/trajectory simulator "
                            "(specialized gate kernels)",
            )
        )

    def _run_experiment(self, circuit, options):
        broadcast = options.get("broadcast")
        if broadcast is not None:
            return self._run_broadcast(circuit, options, broadcast)
        return super()._run_experiment(circuit, options)

    def _run_broadcast(self, circuit, options, broadcast):
        """Run one chunk of a PUB: the vectorized engine when the template
        allows it, else a per-binding loop inside this experiment.

        The template is lowered once; its program's flags pick the path and
        the engine runs that same program.  ``data["path"]`` records which
        of the two ran.  Both give every binding what ``run`` gives its
        bound circuit under the binding's seed: all its shots from that one
        seed.
        """
        shots = options.get("shots", 1024)
        values = broadcast["values"]
        parameters = broadcast["parameters"]
        seeds = broadcast["seeds"]
        observable = broadcast["observable"]
        program = Program(circuit, strip_idle=True)
        if observable is None and program.broadcastable:
            path = "broadcast"
            rows = sample_broadcast(program, values, parameters, shots, seeds)
        elif observable is not None and program.estimable:
            path = "broadcast"
            rows = estimate_broadcast_shots(program, values, parameters,
                                            observable, shots, seeds)
        else:
            path = "loop"
            rows = [
                self._run_bound(
                    circuit.bind_parameters(dict(zip(parameters, row))),
                    observable, shots, seed,
                )
                for row, seed in zip(values, seeds)
            ]
        key = "broadcast_counts" if observable is None else "broadcast_evs"
        return ExperimentResult(circuit.name, shots, {
            key: rows, "shots": shots, "path": path,
        })

    def _run_bound(self, circuit, observable, shots, seed):
        """One binding of the loop path.

        Without an observable: ``run``'s engine call on the bound circuit,
        seeded like its experiment.  With one: ``ExpectationEstimator(
        observable, "shots", shots, seed).estimate(circuit)`` — each term
        circuit under its derived seed, through the same engine call.
        """
        from repro.algorithms.expectation import (
            expectation_from_counts,
            measurement_circuit,
            measurement_terms,
        )

        if observable is None:
            return self._engine.run(circuit, shots=shots, seed=seed)
        energy, terms = measurement_terms(observable)
        term_seeds = derive_experiment_seeds(seed, len(terms))
        for (index, coeff, pauli), term_seed in zip(terms, term_seeds):
            counts = self._engine.run(
                measurement_circuit(circuit, index, pauli), shots=shots,
                seed=term_seed,
            )["counts"]
            energy += coeff * expectation_from_counts(pauli, counts)
        return energy


class StatevectorSimulatorBackend(_AerBackend):
    """Ideal statevector backend."""

    def __init__(self):
        super().__init__(
            BackendConfiguration(
                "statevector_simulator", 24, _ALL_GATES,
                description="dense statevector simulator (specialized gate kernels)",
            )
        )
        self._engine = StatevectorSimulator()

    def _run_experiment(self, circuit, options):
        broadcast = options.get("broadcast")
        if broadcast is not None:
            states = self._engine.run_batch(
                circuit, broadcast["values"], broadcast["parameters"]
            )
            observable = broadcast.get("observable")
            if observable is not None:
                data = {"broadcast_evs": [
                    observable.expectation(state) for state in states
                ]}
            else:
                data = {"broadcast_statevectors": states}
            data["path"] = "broadcast"
            return ExperimentResult(circuit.name, 1, data)
        state = self._engine.run(circuit)
        return ExperimentResult(circuit.name, 1, {"statevector": state})


class UnitarySimulatorBackend(_AerBackend):
    """Full-unitary backend."""

    def __init__(self):
        super().__init__(
            BackendConfiguration(
                "unitary_simulator", 12, _ALL_GATES,
                description="dense unitary simulator (specialized gate kernels)",
            )
        )
        self._engine = UnitarySimulator()

    def _run_experiment(self, circuit, options):
        operator = self._engine.run(circuit)
        return ExperimentResult(circuit.name, 1, {"unitary": operator})


class DensityMatrixSimulatorBackend(_AerBackend):
    """Exact noisy (density-matrix) backend."""

    def __init__(self):
        super().__init__(
            BackendConfiguration(
                "density_matrix_simulator", 10, _ALL_GATES,
                description="exact density-matrix simulator with noise "
                            "(specialized gate kernels)",
            )
        )
        self._engine = DensityMatrixSimulator()

    def _run_experiment(self, circuit, options):
        noise = options.get("noise_model")
        if circuit.num_clbits:
            payload = self._engine.counts(
                circuit,
                shots=options.get("shots", 1024),
                seed=options.get("seed"),
                noise_model=noise,
            )
            return ExperimentResult(circuit.name, payload["shots"], payload)
        state = self._engine.run(circuit, noise)
        return ExperimentResult(circuit.name, 1, {"density_matrix": state})


class DDSimulatorBackend(_AerBackend):
    """Decision-diagram backend (the JKU add-on of the paper's Ref. [5])."""

    def __init__(self):
        super().__init__(
            BackendConfiguration(
                "dd_simulator", 64, _ALL_GATES,
                description="QMDD decision-diagram simulator",
            )
        )
        self._engine = DDSimulator()

    def _splits_shots(self, circuit, options):
        return bool(circuit.num_clbits)

    def _run_experiment(self, circuit, options):
        dd_state = self._engine.run(circuit)
        shots = options.get("shots", 1024)
        data = {
            "dd_nodes": dd_state.node_count(),
            "dd_peak_nodes": dd_state.peak_nodes,
            "dd_table_stats": dd_state.table_stats(),
        }
        if circuit.num_clbits:
            data["counts"] = dd_state.sample_counts(
                shots, seed=options.get("seed")
            )
            data["shots"] = shots
        if circuit.num_qubits <= 20:
            data["statevector"] = dd_state.to_statevector()
        return ExperimentResult(circuit.name, shots, data)


class StabilizerSimulatorBackend(_AerBackend):
    """Clifford tableau backend (polynomial-time for Clifford circuits)."""

    _CLIFFORD_GATES = [
        "h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap", "id",
    ]

    def __init__(self):
        super().__init__(
            BackendConfiguration(
                "stabilizer_simulator", 256, self._CLIFFORD_GATES,
                description="Aaronson-Gottesman stabilizer simulator",
            )
        )
        self._engine = StabilizerSimulator()

    def _splits_shots(self, circuit, options):
        return bool(circuit.num_clbits)

    def _run_experiment(self, circuit, options):
        payload = self._engine.run(
            circuit,
            shots=options.get("shots", 1024),
            seed=options.get("seed"),
        )
        return ExperimentResult(circuit.name, payload["shots"], payload)


class _AerProvider:
    """Provider object exposing ``Aer.get_backend(name)``."""

    def __init__(self):
        self._factories = {
            "qasm_simulator": QasmSimulatorBackend,
            "statevector_simulator": StatevectorSimulatorBackend,
            "unitary_simulator": UnitarySimulatorBackend,
            "density_matrix_simulator": DensityMatrixSimulatorBackend,
            "dd_simulator": DDSimulatorBackend,
            "stabilizer_simulator": StabilizerSimulatorBackend,
        }

    def backends(self) -> list[str]:
        """Available backend names."""
        return sorted(self._factories)

    def get_backend(self, name: str) -> BaseBackend:
        """Instantiate a simulator backend by name."""
        if name not in self._factories:
            raise BackendError(
                f"unknown Aer backend '{name}'; available: {self.backends()}"
            )
        return self._factories[name]()


#: Singleton provider, used as ``Aer.get_backend('qasm_simulator')``.
Aer = _AerProvider()
