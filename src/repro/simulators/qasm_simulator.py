"""Shot-based simulator — the ``qasm_simulator`` of the paper's Section IV.

Three execution strategies, tried in this order:

* **Sampling**: when the circuit is free of gate noise, reset,
  conditions and mid-circuit measurement, the statevector is evolved
  once and ``shots`` outcomes are sampled from the final distribution
  (readout errors flip the sampled bits).
* **Batched unitary noise**: when every gate error is a mixture of
  unitaries and measurements are terminal, all shots evolve together as
  the columns of one ``(2**n, shots)`` array, each column taking its own
  sampled noise branch; outcomes are drawn per column.
* **Trajectories**: otherwise each shot is simulated individually; noise
  channels are applied by Monte-Carlo sampling one Kraus branch per
  application (quantum-trajectory method), and measurements collapse the
  state.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError
from repro.simulators import kernels


def _prob_one(state: np.ndarray, qubit: int, num_qubits: int) -> float:
    """Probability of measuring ``qubit`` as 1.

    Works on a strided 3-D view of the flat state — no full-tensor reshape
    copy, no ``2**n``-element temporary beyond the squared magnitudes of
    the qubit-one slice.
    """
    ones = state.reshape(-1, 2, 1 << qubit)[:, 1, :]
    return float(np.sum(ones.real**2 + ones.imag**2))


def _project(state: np.ndarray, qubit: int, outcome: int,
             num_qubits: int, *, mutate: bool = False) -> np.ndarray:
    """Collapse ``qubit`` to ``outcome`` and renormalize.

    With ``mutate=True`` the collapse happens in place (the caller owns the
    buffer and rebinds to the return value).
    """
    if not mutate:
        state = state.copy()
    view = state.reshape(-1, 2, 1 << qubit)
    view[:, 1 - outcome, :] = 0.0
    norm = math.sqrt(float(np.real(np.vdot(state, state))))
    if norm <= 0:
        raise SimulatorError("projection annihilated the state")
    state *= 1.0 / norm
    return state


def _sample_outcomes(state: np.ndarray, shots: int, rng) -> np.ndarray:
    """Draw ``shots`` basis-state indices from ``|state|**2`` at once.

    One cumulative distribution + vectorized ``searchsorted`` replaces the
    per-shot python loop; when the support is sparse (GHZ-like states after
    Clifford circuits) the cdf is built over the nonzero entries only.
    """
    probs = np.square(state.real)
    probs += np.square(state.imag)
    draws = rng.random(shots)
    # Only pay for the nonzero scan when the support is actually sparse
    # (GHZ-like states after Clifford circuits); a dense distribution goes
    # straight to the full cumulative sum.
    if np.count_nonzero(probs) * 4 < probs.size:
        support = np.flatnonzero(probs)
        cdf = np.cumsum(probs[support])
        picks = np.searchsorted(cdf, draws * cdf[-1], side="right")
        return support[np.minimum(picks, support.size - 1)]
    cdf = np.cumsum(probs)
    picks = np.searchsorted(cdf, draws * cdf[-1], side="right")
    return np.minimum(picks, probs.size - 1)


def _zeros_for_width(shots: int, num_clbits: int) -> np.ndarray:
    """Outcome accumulator: int64 while it fits, Python ints beyond.

    Registers wider than 63 classical bits overflow an int64 shift, so the
    (rare) wide case falls back to object dtype and arbitrary precision.
    """
    return np.zeros(shots, dtype=np.int64 if num_clbits <= 63 else object)


def _measured_values(outcomes, qubit_to_clbit, num_clbits, rng,
                     noise_model=None) -> list[int]:
    """Classical values from sampled basis-state ``outcomes``: each
    measured qubit's bit lands on its clbit, flipped by the qubit's
    readout error (one draw per shot, in ``qubit_to_clbit`` order)."""
    shots = len(outcomes)
    values = _zeros_for_width(shots, num_clbits)
    for qubit, clbit in qubit_to_clbit.items():
        bits = (outcomes >> qubit) & 1
        if noise_model is not None:
            readout = noise_model.readout_error(qubit)
            if readout is not None:
                confusion = readout.probabilities
                flips = rng.random(shots)
                p_one = np.where(bits == 1, confusion[1][1],
                                 confusion[0][1])
                bits = (flips < p_one).astype(np.int64)
        values |= bits.astype(values.dtype) << clbit
    return values.tolist()


def bin_counts(shot_values, width: int, *, memory: bool = False):
    """Bin raw outcome integers into a ``{bitstring: count}`` dict.

    Bins once over the distinct outcomes instead of per shot: formatting
    and dict updates dominate for large shot counts otherwise.  Shared by
    :meth:`QasmSimulator.run` and the broadcast sampler so both produce
    identically formatted keys.  Returns ``(counts, memory_list_or_None)``.
    """
    values = np.asarray(shot_values, dtype=np.int64 if width <= 63 else object)
    unique, multiplicity = np.unique(values, return_counts=True)
    if width <= 63:
        # One shift/mask over all outcomes, rendered as a single byte
        # string and sliced — far cheaper than format() per key.
        bits = (unique[:, None] >> np.arange(width - 1, -1, -1)) & 1
        rendered = (bits + ord("0")).astype(np.uint8).tobytes().decode()
        keys = [
            rendered[i * width : (i + 1) * width] for i in range(len(unique))
        ]
    else:
        keys = [format(int(value), f"0{width}b") for value in unique]
    counts = dict(zip(keys, multiplicity.tolist()))
    if memory:
        lookup = dict(zip(unique.tolist(), keys))
        return counts, [lookup[int(value)] for value in shot_values]
    return counts, None


class QasmSimulator:
    """Executes measured circuits for a number of shots."""

    name = "qasm_simulator"

    def __init__(self, max_qubits: int = 24):
        self._max_qubits = max_qubits

    # -- public API --------------------------------------------------------------

    def run(self, circuit: QuantumCircuit, shots: int = 1024, seed=None,
            noise_model=None, memory: bool = False) -> dict:
        """Simulate and return ``{"counts": ..., "shots": ..., ["memory"]}``.

        Counts keys are bitstrings over *all* classical bits, clbit 0
        rightmost; unwritten clbits read 0.  Every shot is drawn from one
        generator seeded by ``seed``; a backend that splits a run into
        shot-chunks calls this once per chunk, with the chunk's shots and
        derived seed.  Every strategy applies every gate of the circuit.
        """
        if shots < 1:
            raise SimulatorError("shots must be positive")
        if circuit.num_qubits == 0:
            raise SimulatorError("circuit has no qubits")
        if circuit.num_qubits > self._max_qubits:
            raise SimulatorError(
                f"{circuit.num_qubits} qubits exceeds the dense-array limit"
            )
        if circuit.num_clbits == 0:
            raise SimulatorError(
                "qasm simulation needs classical bits; add measurements"
            )
        if self._strippable(noise_model):
            circuit = self._strip_idle_qubits(circuit)
        rng = np.random.default_rng(seed)
        gate_noise_free = noise_model is None or not noise_model.noisy_gates
        if gate_noise_free and self._samplable(circuit):
            # Readout errors (if any) are applied to the sampled bits, so
            # readout-only noise models still take the fast sampling path.
            state, qubit_to_clbit = self._evolve_sampling_state(circuit)
            shot_values = _measured_values(
                _sample_outcomes(state, shots, rng),
                qubit_to_clbit, circuit.num_clbits, rng, noise_model,
            )
        elif self._samplable(circuit) and self._batchable(circuit, noise_model):
            # Probabilistic-unitary noise with terminal measurement: evolve
            # all shots as one (2**n x chunk) batch, splitting columns only
            # where noise branches differ.  Chunk to bound memory at ~64 MiB.
            max_columns = max(1, (1 << 22) // (2**circuit.num_qubits))
            shot_values = []
            for start in range(0, shots, max_columns):
                shot_values.extend(self._run_batched(
                    circuit, min(max_columns, shots - start), rng,
                    noise_model,
                ))
        else:
            shot_values = self._run_trajectories(
                circuit, shots, rng, noise_model
            )
        counts, memory_list = bin_counts(
            shot_values, circuit.num_clbits, memory=memory
        )
        result = {"counts": counts, "shots": shots}
        if memory:
            result["memory"] = memory_list
        return result

    @staticmethod
    def _strippable(noise_model) -> bool:
        """Idle-qubit stripping is only safe for qubit-uniform noise."""
        if noise_model is None:
            return True
        if noise_model._local_errors:
            return False
        return all(key is None for key in noise_model._readout)

    @staticmethod
    def _strip_idle_qubits(circuit: QuantumCircuit):
        """Drop qubits no instruction touches (e.g. unused device wires).

        Transpiled circuits span the whole physical register; simulating the
        idle wires would square the state dimension for nothing.  Idle
        qubits are always in |0>, so dropping them leaves counts unchanged.
        """
        used = set()
        for item in circuit.data:
            used.update(item.qubits)
        if len(used) == circuit.num_qubits or not used:
            return circuit
        from repro.circuit.circuitinstruction import CircuitInstruction
        from repro.circuit.register import QuantumRegister

        kept = [q for q in circuit.qubits if q in used]
        compact_reg = QuantumRegister(len(kept), "sim")
        mapping = dict(zip(kept, compact_reg))
        compact = QuantumCircuit(compact_reg, name=circuit.name)
        for creg in circuit.cregs:
            compact.add_register(creg)
        for item in circuit.data:
            compact.data.append(
                CircuitInstruction(
                    item.operation,
                    [mapping[q] for q in item.qubits],
                    list(item.clbits),
                )
            )
        return compact

    # -- sampling strategy ----------------------------------------------------------

    @staticmethod
    def _samplable(circuit: QuantumCircuit) -> bool:
        """True when one statevector pass plus sampling is exact."""
        measured: set = set()
        written: set = set()
        for item in circuit.data:
            op = item.operation
            if op.condition is not None or op.name == "reset":
                return False
            if op.name == "barrier":
                continue
            if op.name == "measure":
                if item.clbits[0] in written:
                    return False
                measured.add(item.qubits[0])
                written.add(item.clbits[0])
                continue
            if any(q in measured for q in item.qubits):
                return False
        return True

    def _evolve_sampling_state(self, circuit):
        """Evolve the final statevector once for the sampling strategy.

        Returns ``(state, qubit_to_clbit)``; deterministic — no RNG is
        consumed — so every shot of the run is drawn from this one state.
        """
        num_qubits = circuit.num_qubits
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
        state = np.zeros(2**num_qubits, dtype=complex)
        state[0] = 1.0
        qubit_to_clbit: dict[int, int] = {}
        for item in circuit.data:
            op = item.operation
            if op.name == "barrier":
                continue
            if op.name == "measure":
                qubit_to_clbit[qubit_index[item.qubits[0]]] = clbit_index[
                    item.clbits[0]
                ]
                continue
            if not isinstance(op, Gate):
                raise SimulatorError(f"cannot simulate '{op.name}'")
            targets = [qubit_index[q] for q in item.qubits]
            state = kernels.apply_gate(
                state, op, targets, num_qubits, mutate=True
            )
        return state, qubit_to_clbit

    # -- batched trajectory strategy ---------------------------------------------------

    def _batchable(self, circuit, noise_model) -> bool:
        """True when every gate error is a probabilistic-unitary mixture."""
        if noise_model is None:
            return True
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        for item in circuit.data:
            op = item.operation
            if op.name in ("barrier", "measure"):
                continue
            targets = [qubit_index[q] for q in item.qubits]
            error = noise_model.gate_error(op.name, targets)
            if error is not None and error._unitary_branches is None:
                return False
        return True

    def _run_batched(self, circuit, shots, rng, noise_model) -> list[int]:
        num_qubits = circuit.num_qubits
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
        states = np.zeros((2**num_qubits, shots), dtype=complex)
        states[0, :] = 1.0
        qubit_to_clbit: dict[int, int] = {}
        for item in circuit.data:
            op = item.operation
            if op.name == "barrier":
                continue
            if op.name == "measure":
                qubit_to_clbit[qubit_index[item.qubits[0]]] = clbit_index[
                    item.clbits[0]
                ]
                continue
            if not isinstance(op, Gate):
                raise SimulatorError(f"cannot simulate '{op.name}'")
            targets = [qubit_index[q] for q in item.qubits]
            states = kernels.apply_gate(
                states, op, targets, num_qubits, mutate=True
            )
            if noise_model is None:
                continue
            error = noise_model.gate_error(op.name, targets)
            if error is None:
                continue
            branches = error._unitary_branches
            probabilities = np.array([b[0] for b in branches])
            probabilities = probabilities / probabilities.sum()
            choice = rng.choice(len(branches), size=shots, p=probabilities)
            for index, (_p, unitary, is_identity) in enumerate(branches):
                if is_identity:
                    continue
                columns = choice == index
                if columns.any():
                    # Fancy-indexed columns are a copy; evolve the copy in
                    # place and scatter it back.
                    states[:, columns] = kernels.apply_unitary(
                        states[:, columns], unitary, targets, num_qubits,
                        mutate=True,
                    )
        # Per-column measurement sampling via the inverse-CDF trick.
        probabilities = states.real**2 + states.imag**2
        probabilities /= probabilities.sum(axis=0, keepdims=True)
        cumulative = np.cumsum(probabilities, axis=0)
        draws = rng.random(shots)
        outcomes = (cumulative < draws[None, :]).sum(axis=0)
        return _measured_values(outcomes, qubit_to_clbit,
                                circuit.num_clbits, rng, noise_model)

    # -- trajectory strategy ----------------------------------------------------------

    def _deterministic_prefix(self, data, qubit_index, noise_model) -> int:
        """Length of the leading run of noise-free unconditioned gates.

        Every trajectory evolves identically through this prefix, so it is
        simulated once and each shot starts from a copy of the result.
        """
        split = 0
        for item in data:
            op = item.operation
            if (
                op.condition is not None
                or op.name in ("measure", "reset")
                or not isinstance(op, Gate)
            ):
                break
            if noise_model is not None:
                targets = [qubit_index[q] for q in item.qubits]
                if noise_model.gate_error(op.name, targets) is not None:
                    break
            split += 1
        return split

    def _run_trajectories(self, circuit, shots, rng, noise_model) -> list[int]:
        num_qubits = circuit.num_qubits
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
        creg_slices = {
            reg: [clbit_index[c] for c in reg] for reg in circuit.cregs
        }
        data = [
            item for item in circuit.data if item.operation.name != "barrier"
        ]
        split = self._deterministic_prefix(data, qubit_index, noise_model)
        prefix_state = np.zeros(2**num_qubits, dtype=complex)
        prefix_state[0] = 1.0
        for item in data[:split]:
            targets = [qubit_index[q] for q in item.qubits]
            prefix_state = kernels.apply_gate(
                prefix_state, item.operation, targets, num_qubits, mutate=True
            )
        suffix = data[split:]
        buffer = np.empty_like(prefix_state)
        shot_values = []
        for _ in range(shots):
            np.copyto(buffer, prefix_state)
            state = buffer
            classical = 0
            for item in suffix:
                op = item.operation
                name = op.name
                if op.condition is not None:
                    register, target_value = op.condition
                    positions = creg_slices[register]
                    actual = 0
                    for offset, position in enumerate(positions):
                        if (classical >> position) & 1:
                            actual |= 1 << offset
                    if actual != target_value:
                        continue
                if name == "measure":
                    qubit = qubit_index[item.qubits[0]]
                    clbit = clbit_index[item.clbits[0]]
                    outcome = int(rng.random() < _prob_one(state, qubit, num_qubits))
                    state = _project(
                        state, qubit, outcome, num_qubits, mutate=True
                    )
                    recorded = outcome
                    if noise_model is not None:
                        readout = noise_model.readout_error(qubit)
                        if readout is not None:
                            recorded = readout.sample(outcome, rng)
                    if recorded:
                        classical |= 1 << clbit
                    else:
                        classical &= ~(1 << clbit)
                    continue
                if name == "reset":
                    qubit = qubit_index[item.qubits[0]]
                    outcome = int(rng.random() < _prob_one(state, qubit, num_qubits))
                    state = _project(
                        state, qubit, outcome, num_qubits, mutate=True
                    )
                    if outcome:
                        x_matrix = np.array([[0, 1], [1, 0]], dtype=complex)
                        state = kernels.apply_unitary(
                            state, x_matrix, [qubit], num_qubits, mutate=True
                        )
                    continue
                if not isinstance(op, Gate):
                    raise SimulatorError(f"cannot simulate '{name}'")
                targets = [qubit_index[q] for q in item.qubits]
                state = kernels.apply_gate(
                    state, op, targets, num_qubits, mutate=True
                )
                if noise_model is not None:
                    error = noise_model.gate_error(name, targets)
                    if error is not None:
                        if error.num_qubits != len(targets):
                            raise SimulatorError(
                                f"noise for '{name}' acts on "
                                f"{error.num_qubits} qubit(s), gate on "
                                f"{len(targets)}"
                            )
                        state = error.sample_kraus(
                            state, targets, num_qubits, rng
                        )
            shot_values.append(classical)
        return shot_values
