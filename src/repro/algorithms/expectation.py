"""Pauli expectation-value estimation, exact or from measurement counts.

A VQE objective evaluates <psi(theta)| H |psi(theta)> for a Pauli-sum H.
Exactly (statevector) this is one matrix quadratic form; on a shot-based
backend each Pauli term needs a basis-change circuit and a parity average —
the conventional-quantum hybrid loop of the paper's Aqua description.
"""

from __future__ import annotations

from repro.circuit.library.standard_gates import HGate, SdgGate
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import AlgorithmError
from repro.quantum_info.pauli import Pauli, PauliSumOp
from repro.simulators.statevector_simulator import StatevectorSimulator


def measurement_basis_change(pauli: Pauli):
    """Yield the ``(gate, qubit)`` rotations mapping ``pauli``'s
    eigenbasis to the Z basis: X -> H; Y -> Sdg then H; Z and I none."""
    for qubit in range(pauli.num_qubits):
        char = pauli.char(qubit)
        if char == "Y":
            yield SdgGate(), qubit
        if char in ("X", "Y"):
            yield HGate(), qubit


def expectation_from_counts(pauli: Pauli, counts: dict) -> float:
    """Estimate <P> from Z-basis counts taken after the basis change.

    Outcome bit ``q`` (0 = rightmost key character) contributes to the
    parity iff ``pauli`` acts non-trivially on qubit ``q``.
    """
    support = set(pauli.support)
    if not support:
        return 1.0
    total = 0
    accumulator = 0
    for key, value in counts.items():
        parity = 0
        for qubit in support:
            position = len(key) - 1 - qubit
            if position < 0:
                raise AlgorithmError("counts key shorter than Pauli support")
            if key[position] == "1":
                parity ^= 1
        accumulator += (-1) ** parity * value
        total += value
    if total == 0:
        raise AlgorithmError("empty counts")
    return accumulator / total


def measurement_terms(hamiltonian: PauliSumOp):
    """Split ``H`` into its constant and its measured Pauli terms.

    Returns ``(constant, terms)``: ``constant`` sums the identity terms'
    real coefficients in term order, and ``terms`` lists ``(index, coeff,
    pauli)`` for every other term.  :class:`ExpectationEstimator` and the
    backend's shots-mode PUBs both estimate from these terms, each
    sampled on its :func:`measurement_circuit`.
    """
    constant = 0.0
    terms = []
    for index, (coeff, pauli) in enumerate(hamiltonian.terms):
        if abs(coeff.imag) > 1e-9:
            raise AlgorithmError("shot estimation needs real coefficients")
        if pauli.support:
            terms.append((index, coeff.real, pauli))
        else:
            constant += coeff.real
    return constant, terms


def measurement_circuit(circuit: QuantumCircuit, index: int,
                        pauli: Pauli) -> QuantumCircuit:
    """``circuit``, then ``pauli``'s basis change and a measurement of its
    support (qubit ``q`` into clbit ``q``), named ``term-<index>``."""
    measured = QuantumCircuit(circuit.num_qubits, circuit.num_qubits,
                              name=f"term-{index}")
    measured.compose(circuit, qubits=measured.qubits, inplace=True)
    for gate, qubit in measurement_basis_change(pauli):
        measured.append(gate, [qubit])
    for qubit in pauli.support:
        measured.measure(qubit, qubit)
    return measured


class ExpectationEstimator:
    """Evaluates <H> for one circuit at a time, exactly or by sampling.

    This is the scalar reference: a batch of bindings of one template is
    an :class:`~repro.primitives.EstimatorV2` PUB, one ``run_pubs`` job,
    whose shots-mode binding ``b`` equals ``ExpectationEstimator(H,
    "shots", shots, seed=derived[b]).estimate(bound_b)`` bit for bit.

    Args:
        hamiltonian: the :class:`PauliSumOp` observable.
        mode: ``"exact"`` (statevector) or ``"shots"`` (sampled).
        shots: samples per Pauli term in shot mode.
        seed: RNG seed for shot mode.
        noise_model: optional noise for shot mode.
    """

    def __init__(self, hamiltonian: PauliSumOp, mode: str = "exact",
                 shots: int = 2048, seed=None, noise_model=None):
        if mode not in ("exact", "shots"):
            raise AlgorithmError(f"unknown estimation mode '{mode}'")
        self.hamiltonian = hamiltonian
        self.mode = mode
        self.shots = shots
        self.seed = seed
        self.noise_model = noise_model
        self._statevector_engine = StatevectorSimulator()
        # Shot mode submits all Pauli-term circuits as one batch through
        # the execution pipeline (assemble -> schedule -> run -> collect).
        from repro.providers.aer import QasmSimulatorBackend

        self._qasm_backend = QasmSimulatorBackend()
        self.evaluations = 0

    def estimate(self, circuit: QuantumCircuit) -> float:
        """<H> for the state prepared by ``circuit`` from |0...0>."""
        self.evaluations += 1
        if circuit.num_qubits != self.hamiltonian.num_qubits:
            raise AlgorithmError(
                "circuit width does not match the Hamiltonian"
            )
        if self.mode == "exact":
            state = self._statevector_engine.run(circuit)
            return self.hamiltonian.expectation(state)
        return self._estimate_shots(circuit)

    def _estimate_shots(self, circuit: QuantumCircuit) -> float:
        """One batched submission covering every measured Pauli term.

        Each term needs its own basis-change circuit
        (:func:`measurement_circuit`), but the whole fan-out goes through
        the pipeline as a single job (one seed per term derived from the
        estimator seed), so parallel executors can spread the terms
        across cores.
        """
        energy, terms = measurement_terms(self.hamiltonian)
        if not terms:
            return energy
        circuits = [
            measurement_circuit(circuit, index, pauli)
            for index, _coeff, pauli in terms
        ]
        result = self._qasm_backend.run(
            circuits, shots=self.shots, seed=self.seed,
            noise_model=self.noise_model,
        ).result()
        for (_index, coeff, pauli), measured in zip(terms, circuits):
            energy += coeff * expectation_from_counts(
                pauli, result.get_counts(measured.name)
            )
        return energy
