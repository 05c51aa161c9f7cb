"""Shot-based simulator — the ``qasm_simulator`` of the paper's Section IV.

The circuit is lowered once into a
:class:`~repro.simulators.program.Program` (idle qubits dropped when the
noise model treats every qubit alike, each gate step tagged with its
error), and its flags pick one of three execution strategies, tried in
this order:

* **Sampling**: when the circuit is free of gate noise and ``samplable``
  (no reset, conditions or mid-circuit measurement), the gate steps evolve
  one statevector and ``shots`` outcomes are sampled from the final
  distribution (readout errors flip the sampled bits).
* **Batched unitary noise**: when it is ``samplable`` and ``batchable``
  (every gate error a mixture of unitaries), all shots evolve together as
  the columns of one ``(2**n, shots)`` array, each column taking its own
  sampled noise branch; outcomes are drawn per column.
* **Trajectories**: otherwise each shot runs the steps individually from
  the shared noise-free ``prefix``; noise channels are applied by
  Monte-Carlo sampling one Kraus branch per application (quantum-trajectory
  method), and measurements collapse the state.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import SimulatorError
from repro.simulators import kernels
from repro.simulators.program import Program


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
        program = Program(circuit, noise_model,
                          strip_idle=self._strippable(noise_model))
        if program.nongate is not None:
            raise SimulatorError(f"cannot simulate '{program.nongate}'")
        rng = np.random.default_rng(seed)
        gate_noise_free = noise_model is None or not noise_model.noisy_gates
        if gate_noise_free and program.samplable:
            # Readout errors (if any) are applied to the sampled bits, so
            # readout-only noise models still take the fast sampling path.
            state = np.zeros(2**program.num_qubits, dtype=complex)
            state[0] = 1.0
            state = kernels.apply_steps(state, program.gates,
                                        program.num_qubits)
            shot_values = _measured_values(
                _sample_outcomes(state, shots, rng),
                program.measures, circuit.num_clbits, rng, noise_model,
            )
        elif program.samplable and program.batchable:
            # Probabilistic-unitary noise with terminal measurement: evolve
            # all shots as one (2**n x chunk) batch, splitting columns only
            # where noise branches differ.  Chunk to bound memory at ~64 MiB.
            max_columns = max(1, (1 << 22) // (2**program.num_qubits))
            shot_values = []
            for start in range(0, shots, max_columns):
                shot_values.extend(self._run_batched(
                    program, min(max_columns, shots - start), rng,
                    noise_model,
                ))
        else:
            shot_values = self._run_trajectories(
                program, shots, rng, noise_model
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

    # -- batched trajectory strategy ---------------------------------------------------

    def _run_batched(self, program, shots, rng, noise_model) -> list[int]:
        num_qubits = program.num_qubits
        states = np.zeros((2**num_qubits, shots), dtype=complex)
        states[0, :] = 1.0
        for step in program.gates:
            states = kernels.apply_step(states, step, num_qubits, shots)
            if step.error is None:
                continue
            branches = step.error._unitary_branches
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
                        states[:, columns], unitary, step.targets,
                        num_qubits, mutate=True,
                    )
        # Per-column measurement sampling via the inverse-CDF trick.
        probabilities = states.real**2 + states.imag**2
        probabilities /= probabilities.sum(axis=0, keepdims=True)
        cumulative = np.cumsum(probabilities, axis=0)
        draws = rng.random(shots)
        outcomes = (cumulative < draws[None, :]).sum(axis=0)
        return _measured_values(outcomes, program.measures,
                                program.circuit.num_clbits, rng, noise_model)

    # -- trajectory strategy ----------------------------------------------------------

    def _run_trajectories(self, program, shots, rng, noise_model) -> list[int]:
        num_qubits = program.num_qubits
        steps = program.steps
        prefix_state = np.zeros(2**num_qubits, dtype=complex)
        prefix_state[0] = 1.0
        prefix_state = kernels.apply_steps(
            prefix_state, steps[:program.prefix], num_qubits
        )
        suffix = steps[program.prefix:]
        buffer = np.empty_like(prefix_state)
        shot_values = []
        for _ in range(shots):
            np.copyto(buffer, prefix_state)
            state = buffer
            classical = 0
            for step in suffix:
                if step.condition is not None:
                    positions, target_value = step.condition
                    actual = 0
                    for offset, position in enumerate(positions):
                        if (classical >> position) & 1:
                            actual |= 1 << offset
                    if actual != target_value:
                        continue
                kind = step.kind
                if kind == "measure":
                    qubit = step.targets[0]
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
                        classical |= 1 << step.data
                    else:
                        classical &= ~(1 << step.data)
                    continue
                if kind == "reset":
                    qubit = step.targets[0]
                    outcome = int(rng.random() < _prob_one(state, qubit, num_qubits))
                    state = _project(
                        state, qubit, outcome, num_qubits, mutate=True
                    )
                    if outcome:
                        state = kernels.apply_step(state, step.data, num_qubits)
                    continue
                state = kernels.apply_step(state, step, num_qubits)
                error = step.error
                if error is not None:
                    if error.num_qubits != len(step.targets):
                        raise SimulatorError(
                            f"noise for '{step.source.name}' acts on "
                            f"{error.num_qubits} qubit(s), gate on "
                            f"{len(step.targets)}"
                        )
                    state = error.sample_kraus(
                        state, step.targets, num_qubits, rng
                    )
            shot_values.append(classical)
            # The shot's final buffer is ours; the first one may have gone
            # to the kernels' scratch pool.
            buffer = state
        return shot_values
