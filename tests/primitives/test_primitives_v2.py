"""SamplerV2/EstimatorV2 behaviour: PUB coercion, bit-identity, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.ansatz import ry_ansatz, ryrz_ansatz
from repro.algorithms.expectation import ExpectationEstimator
from repro.algorithms.optimizers import SPSA, BatchableObjective
from repro.algorithms.qaoa import QAOA
from repro.algorithms.vqe import VQE
from repro.circuit import ClassicalRegister, Parameter, QuantumCircuit
from repro.exceptions import AlgorithmError
from repro.primitives import (
    DataBin,
    EstimatorPub,
    EstimatorV2,
    PrimitiveResult,
    PubResult,
    SamplerPub,
    SamplerV2,
)
from repro.providers.aer import Aer
from repro.qobj.assembler import derive_experiment_seeds
from repro.quantum_info.pauli import PauliSumOp
from repro.simulators.statevector_simulator import StatevectorSimulator
from repro.transpiler.cache import circuit_fingerprint

SEED = 77


def small_hamiltonian():
    return PauliSumOp.from_dict({
        "ZZII": 0.7, "IZZI": -0.4, "XIII": 0.3, "IIII": 1.1,
    })


class TestContainers:
    def test_sampler_pub_coercion_defaults(self):
        form = ryrz_ansatz(3, reps=1)
        pub = SamplerPub.coerce(
            (form.circuit, np.zeros((4, form.num_parameters)))
        )
        assert pub.batch_size == 4
        # Default parameter order is sorted by name.
        assert [p.name for p in pub.parameters] == sorted(
            p.name for p in form.parameters
        )

    def test_sampler_pub_bare_circuit(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        pub = SamplerPub.coerce(qc)
        assert pub.batch_size == 1
        assert pub.parameters == []

    def test_sampler_pub_rejects_column_mismatch(self):
        form = ry_ansatz(2, reps=1)
        with pytest.raises(AlgorithmError, match="columns"):
            SamplerPub.coerce((form.circuit, np.zeros((2, 1))))

    def test_estimator_pub_observable_coercion(self):
        form = ry_ansatz(2, reps=1)
        pub = EstimatorPub.coerce(
            (form.circuit, {"ZZ": 1.0}, np.zeros((1, 4)),
             form.parameters)
        )
        assert isinstance(pub.observable, PauliSumOp)
        pub2 = EstimatorPub.coerce(
            (form.circuit, "ZZ", np.zeros((1, 4)), form.parameters)
        )
        assert pub2.observable.terms[0][1].label == "ZZ"

    def test_estimator_pub_rejects_width_mismatch(self):
        form = ry_ansatz(2, reps=1)
        with pytest.raises(AlgorithmError, match="qubits"):
            EstimatorPub.coerce((form.circuit, "ZZZ"))

    def test_databin_and_result_containers(self):
        bin_ = DataBin(counts=[{"0": 3}], shots=3)
        assert "counts" in bin_
        assert sorted(bin_) == ["counts", "shots"]
        result = PrimitiveResult(
            [PubResult(bin_, {"shots": 3})], {"backend": "x"}
        )
        assert len(result) == 1
        assert result[0].data.shots == 3


class TestSamplerV2:
    @pytest.fixture(scope="class")
    def measured(self):
        form = ryrz_ansatz(4, reps=1)
        circuit = form.circuit.copy()
        circuit.add_register(ClassicalRegister(4, "c"))
        for q in range(4):
            circuit.measure(q, q)
        rng = np.random.default_rng(1)
        values = rng.uniform(-np.pi, np.pi, size=(5, form.num_parameters))
        return circuit, list(form.parameters), values

    def test_refuses_a_backend_that_does_not_sample(self):
        with pytest.raises(AlgorithmError, match="qasm_simulator"):
            SamplerV2(Aer.get_backend("statevector_simulator"))

    def test_broadcast_matches_bound_loop(self, measured):
        circuit, parameters, values = measured
        backend = Aer.get_backend("qasm_simulator")
        bound = [
            circuit.bind_parameters(dict(zip(parameters, row)))
            for row in values
        ]
        reference = backend.run(bound, shots=256, seed=SEED).result()
        expected = [
            reference.results[i].data["counts"] for i in range(len(bound))
        ]
        job = SamplerV2(seed=SEED).run(
            [(circuit, values, parameters)], shots=256
        )
        result = job.result()
        assert result[0].metadata["path"] == "broadcast"
        assert result[0].data.counts == expected

    def test_conditional_falls_back_to_loop(self, measured):
        circuit, parameters, values = measured
        conditional = circuit.copy()
        conditional.x(0)
        conditional.data[-1].operation.condition = (
            conditional.cregs[0], 0
        )
        backend = Aer.get_backend("qasm_simulator")
        bound = [
            conditional.bind_parameters(dict(zip(parameters, row)))
            for row in values
        ]
        reference = backend.run(bound, shots=128, seed=SEED).result()
        job = SamplerV2(seed=SEED).run(
            [(conditional, values, parameters)], shots=128
        )
        result = job.result()
        assert result[0].metadata["path"] == "loop"
        assert result[0].data.counts == [
            reference.results[i].data["counts"] for i in range(len(bound))
        ]

    def test_mid_circuit_measurement_runs_per_binding(self):
        # Not samplable, so the backend loops over the bindings instead
        # of failing the pub in the broadcast sampler.
        a = Parameter("a")
        template = QuantumCircuit(1, 2)
        template.ry(a, 0)
        template.measure(0, 0)
        template.ry(a, 0)
        template.measure(0, 1)
        values = np.array([[0.3], [1.2]])
        bound = [template.bind_parameters({a: row[0]}) for row in values]
        reference = Aer.get_backend("qasm_simulator").run(
            bound, shots=200, seed=SEED
        ).result()
        result = SamplerV2(seed=SEED).run(
            [(template, values, [a])], shots=200
        ).result()
        assert result[0].metadata["path"] == "loop"
        assert result[0].data.counts == [
            reference.results[i].data["counts"] for i in range(2)
        ]

    def test_pubs_match_bound_loop_above_chunk_size(self, measured):
        # 20000 shots is two shot-chunks: run() seeds each chunk from
        # derive_chunk_seeds, and both paths of a pub draw with that
        # layout too.  The conditional pub runs per binding in the same
        # job (as trajectories, so it stays one qubit and one binding).
        circuit, parameters, values = measured
        conditional = QuantumCircuit(1, 1)
        conditional.ry(parameters[0], 0)
        conditional.measure(0, 0)
        conditional.x(0)
        conditional.data[-1].operation.condition = (
            conditional.cregs[0], 0
        )
        pubs = [(circuit, values, parameters),
                (conditional, values[:1, :1], parameters[:1])]
        bound = [
            template.bind_parameters(dict(zip(names, row)))
            for template, rows, names in pubs for row in rows
        ]
        reference = Aer.get_backend("qasm_simulator").run(
            bound, shots=20000, seed=SEED
        ).result()
        result = SamplerV2(seed=SEED).run(pubs, shots=20000).result()
        assert [pub.metadata["path"] for pub in result] == [
            "broadcast", "loop",
        ]
        assert result[0].data.counts + result[1].data.counts == [
            reference.results[i].data["counts"] for i in range(len(bound))
        ]

    def test_each_row_applies_its_own_angle(self):
        # ry(0) is diagonal and ry(pi/2) is not: every row applies the
        # rotation at its own angle.
        a = Parameter("a")
        template = QuantumCircuit(1, 1)
        template.h(0)
        template.ry(a, 0)
        template.measure(0, 0)
        values = np.array([[0.0], [np.pi / 2]])
        bound = [template.bind_parameters({a: row[0]}) for row in values]
        reference = Aer.get_backend("qasm_simulator").run(
            bound, shots=1000, seed=3
        ).result()
        result = SamplerV2(seed=3).run(
            [(template, values, [a])], shots=1000
        ).result()
        assert result[0].metadata["path"] == "broadcast"
        assert result[0].data.counts == [
            reference.results[i].data["counts"] for i in range(2)
        ]
        assert result[0].data.counts[1] == {"1": 1000}


class TestEstimatorV2:
    @pytest.fixture(scope="class")
    def setup(self):
        form = ry_ansatz(4, reps=1)
        rng = np.random.default_rng(8)
        values = rng.uniform(-np.pi, np.pi, size=(6, form.num_parameters))
        return form, values, small_hamiltonian()

    def test_exact_evs_bitwise(self, setup):
        form, values, hamiltonian = setup
        job = EstimatorV2().run(
            [(form.circuit, hamiltonian, values, form.parameters)]
        )
        evs = job.result()[0].data.evs
        engine = StatevectorSimulator()
        for row, value in zip(values, evs):
            bound = form.circuit.bind_parameters(
                dict(zip(form.parameters, row))
            )
            assert value == hamiltonian.expectation(engine.run(bound))

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_shots_evs_bitwise_across_executors(self, executor, setup):
        form, values, hamiltonian = setup
        job = EstimatorV2(mode="shots", seed=SEED).run(
            [(form.circuit, hamiltonian, values, form.parameters)],
            shots=300, executor=executor,
        )
        evs = job.result()[0].data.evs
        seeds = derive_experiment_seeds(SEED, len(values))
        for idx, row in enumerate(values):
            bound = form.circuit.bind_parameters(
                dict(zip(form.parameters, row))
            )
            reference = ExpectationEstimator(
                hamiltonian, mode="shots", shots=300, seed=seeds[idx]
            ).estimate(bound)
            assert evs[idx] == reference

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_shots_evs_bitwise_above_chunk_size(self, executor, setup):
        # Two shot-chunks per term, on both paths: the idle-qubit pub
        # runs the per-binding term loop in the same job.
        form, values, hamiltonian = setup
        idle = QuantumCircuit(4)
        idle.h(0)
        idle.ry(form.parameters[0], 1)
        pubs = [
            (form.circuit, hamiltonian, values[:3], form.parameters),
            (idle, hamiltonian, values[:2, :1], form.parameters[:1]),
        ]
        result = EstimatorV2(mode="shots", seed=SEED).run(
            pubs, shots=20000, executor=executor,
        ).result()
        assert [pub.metadata["path"] for pub in result] == [
            "broadcast", "loop",
        ]
        seeds = iter(derive_experiment_seeds(SEED, 5))
        for (circuit, _, rows, parameters), pub in zip(pubs, result):
            for row, value in zip(rows, pub.data.evs):
                bound = circuit.bind_parameters(dict(zip(parameters, row)))
                assert value == ExpectationEstimator(
                    hamiltonian, mode="shots", shots=20000,
                    seed=next(seeds),
                ).estimate(bound)

    def test_each_row_applies_its_own_angle(self):
        # At a = pi/2 the state is |11>, so <ZZ + 0.5 ZI> is exactly 0.5;
        # skipping ry at every row, as binding 0's ry(0) allows, would
        # measure |++>.
        a = Parameter("a")
        template = QuantumCircuit(2)
        for qubit in range(2):
            template.h(qubit)
        for qubit in range(2):
            template.ry(a, qubit)
        hamiltonian = PauliSumOp.from_dict({"ZZ": 1.0, "ZI": 0.5})
        values = np.array([[0.0], [np.pi / 2]])
        result = EstimatorV2(mode="shots", seed=3).run(
            [(template, hamiltonian, values, [a])], shots=1000
        ).result()
        assert result[0].metadata["path"] == "broadcast"
        seeds = derive_experiment_seeds(3, 2)
        for idx in range(2):
            reference = ExpectationEstimator(
                hamiltonian, mode="shots", shots=1000, seed=seeds[idx]
            ).estimate(template.bind_parameters({a: values[idx, 0]}))
            assert result[0].data.evs[idx] == reference
        assert result[0].data.evs[1] == 0.5

    def test_idle_qubit_falls_back_with_same_seeds(self):
        a = Parameter("a")
        template = QuantumCircuit(3)
        template.h(0)
        template.ry(a, 1)  # qubit 2 idle: broadcast comparator diverges
        hamiltonian = PauliSumOp.from_dict({"ZZI": 0.5, "IIZ": 0.3})
        values = np.linspace(0.1, 1.3, 4).reshape(4, 1)
        job = EstimatorV2(mode="shots", seed=SEED).run(
            [(template, hamiltonian, values, [a])], shots=200
        )
        result = job.result()
        assert result[0].metadata["path"] == "loop"
        seeds = derive_experiment_seeds(SEED, 4)
        for idx in range(4):
            bound = template.bind_parameters({a: values[idx, 0]})
            reference = ExpectationEstimator(
                hamiltonian, mode="shots", shots=200, seed=seeds[idx]
            ).estimate(bound)
            assert result[0].data.evs[idx] == reference

    def test_mode_backend_consistency(self):
        with pytest.raises(AlgorithmError, match="backend"):
            EstimatorV2(
                backend=Aer.get_backend("qasm_simulator"), mode="exact"
            )


class TestAlgorithmBatching:
    def test_vqe_energy_many_bitwise(self):
        hamiltonian = small_hamiltonian()
        vqe = VQE(hamiltonian, seed=3)
        rng = np.random.default_rng(31)
        points = rng.uniform(
            -np.pi, np.pi, size=(3, vqe.ansatz.num_parameters)
        )
        energies = vqe.energy_many(points)
        for point, energy in zip(points, energies):
            assert energy == vqe.energy(point)

    def test_qaoa_energy_many_bitwise(self):
        qaoa = QAOA([(0, 1), (1, 2), (0, 2)], 3, reps=2, seed=5)
        rng = np.random.default_rng(37)
        points = rng.uniform(0, np.pi, size=(4, 4))
        energies = qaoa.energy_many(points)
        for point, energy in zip(points, energies):
            assert energy == qaoa.energy(point)

    def test_spsa_batched_objective_identical_to_scalar(self):
        def quadratic(x):
            return float(np.sum((x - 0.5) ** 2))

        def quadratic_many(points):
            return np.sum((points - 0.5) ** 2, axis=1)

        scalar = SPSA(maxiter=40, seed=9).optimize(quadratic, np.zeros(3))
        batched = SPSA(maxiter=40, seed=9).optimize(
            BatchableObjective(quadratic, quadratic_many), np.zeros(3)
        )
        assert scalar.x.tobytes() == batched.x.tobytes()
        assert scalar.fun == batched.fun
        assert scalar.history == batched.history


class TestTranspileCacheFingerprint:
    def test_symbolic_template_fingerprint_is_stable(self):
        form = ry_ansatz(3, reps=1)
        assert circuit_fingerprint(form.circuit) == circuit_fingerprint(
            form.circuit
        )

    def test_distinct_same_named_parameters_differ(self):
        def build(param):
            qc = QuantumCircuit(1)
            qc.ry(param, 0)
            return qc

        a1, a2 = Parameter("a"), Parameter("a")
        assert circuit_fingerprint(build(a1)) != circuit_fingerprint(
            build(a2)
        )
        assert circuit_fingerprint(build(a1)) == circuit_fingerprint(
            build(a1)
        )

    def test_bound_values_still_distinguish(self):
        qc1 = QuantumCircuit(1)
        qc1.ry(0.3, 0)
        qc2 = QuantumCircuit(1)
        qc2.ry(0.4, 0)
        assert circuit_fingerprint(qc1) != circuit_fingerprint(qc2)
