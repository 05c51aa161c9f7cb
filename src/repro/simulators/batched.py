"""Parameter-axis broadcast engine — batched statevector evolution.

The V2 primitives evaluate one parameterized template at a whole array of
parameter value sets.  Evolving each binding separately repeats every
binding-independent gate ``batch`` times; this module instead stacks the
states into one C-contiguous ``(batch, 2**n)`` array and runs the
template's lowered :class:`~repro.simulators.program.Program` across the
batch axis:

* **shared** steps (gates with no unbound parameters) go through the one
  step dispatch of :mod:`repro.simulators.kernels`, which folds the rows
  into the leading extent of its views and takes every decision on one
  row's size, so each row sees the single-state arithmetic;
* **per-binding** steps (``rx``/``rz``/``u3``/``crz``/... with symbolic
  angles) get their matrices built as stacked ``(batch, 2, 2)`` tensors in
  one vectorized pass over the resolved angle vectors, then applied with a
  broadcast matmul (dense), a broadcast elementwise multiply (diagonal), or
  a control-sliced tensor update (controlled-dense).

Bit-exactness is the design contract, not an accident: every batched
operation reduces to the *same* floating-point arithmetic per row as the
single-state kernels (``np.matmul`` on a row-contiguous stack equals the
per-row GEMM; ``np.exp``/``np.sin``/``np.cos`` agree bitwise with their
``cmath``/``math`` scalar counterparts on float64), so the broadcast
results — statevectors, sampled counts, expectation values — are bitwise
identical to a per-binding loop under the same seeds.  Where numpy's
arithmetic would depend on the row count (a GEMM whose every row is one
whole state, a step spanning every qubit), rows go one at a time.  The
only documented
exception: a binding sitting exactly on a structural corner (``rx(0)``,
``rx(pi)``, a generically-parameterized diagonal entry landing on ``1``)
may flip the sign of a ``-0.0`` component, because the single-state path
reclassifies such matrices structurally while the batch path dispatches by
gate name.

Memory model: the working set is two ``(chunk, 2**n)`` complex buffers
(dense steps ping-pong through the kernels' scratch pool).  The batch axis
is chunked so one buffer never exceeds ``MAX_BROADCAST_AMPLITUDES``
amplitudes (64 MiB at complex128), i.e.
``chunk = max(1, MAX_BROADCAST_AMPLITUDES // 2**n)`` rows at a time.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.parameterbinding import get_bind_plan
from repro.exceptions import SimulatorError
from repro.qobj.assembler import derive_experiment_seeds
from repro.simulators import kernels
from repro.simulators.program import Program
from repro.simulators.qasm_simulator import (
    _sample_outcomes,
    _zeros_for_width,
    bin_counts,
)
from repro.telemetry.tracer import get_tracer

#: Amplitude cap per batch chunk: ``chunk * 2**n <= 1 << 22`` keeps each of
#: the two working buffers at or under 64 MiB of complex128.
MAX_BROADCAST_AMPLITUDES = 1 << 22

_SQRT2_INV = 1.0 / np.sqrt(2.0)


def broadcast_chunk_bounds(batch, num_qubits, cap=None):
    """Split ``batch`` rows into ``(start, stop)`` chunks under the cap."""
    if cap is None:
        cap = MAX_BROADCAST_AMPLITUDES
    rows = max(1, cap // (1 << num_qubits))
    return [
        (start, min(start + rows, batch)) for start in range(0, batch, rows)
    ]


def _row_view(states, targets):
    """:func:`kernels._compact_view` of a row stack with the rows split
    back out as axis 0, for kernels that scale each row differently."""
    view, axes = kernels._compact_view(states, targets, 1)
    return (view.reshape((states.shape[0], -1) + view.shape[1:]),
            [axis + 1 for axis in axes])


# ---------------------------------------------------------------------------
# Per-binding matrix builders
#
# Each mirrors the corresponding ``Gate._matrix`` formula with the scalar
# ``math``/``cmath`` calls replaced by their bitwise-equal numpy
# vectorizations over the ``(batch,)`` angle vectors.
# ---------------------------------------------------------------------------


def _build_rx(batch, theta):
    cos = np.cos(theta / 2)
    sin = np.sin(theta / 2)
    mats = np.empty((batch, 2, 2), dtype=complex)
    mats[:, 0, 0] = cos
    mats[:, 0, 1] = -1j * sin
    mats[:, 1, 0] = -1j * sin
    mats[:, 1, 1] = cos
    return mats


def _build_ry(batch, theta):
    cos = np.cos(theta / 2)
    sin = np.sin(theta / 2)
    mats = np.empty((batch, 2, 2), dtype=complex)
    mats[:, 0, 0] = cos
    mats[:, 0, 1] = -sin
    mats[:, 1, 0] = sin
    mats[:, 1, 1] = cos
    return mats


def _build_u2(batch, phi, lam):
    mats = np.empty((batch, 2, 2), dtype=complex)
    mats[:, 0, 0] = 1
    mats[:, 0, 1] = -np.exp(1j * lam)
    mats[:, 1, 0] = np.exp(1j * phi)
    mats[:, 1, 1] = np.exp(1j * (phi + lam))
    mats *= _SQRT2_INV
    return mats


def _build_u3(batch, theta, phi, lam):
    cos = np.cos(theta / 2)
    sin = np.sin(theta / 2)
    mats = np.empty((batch, 2, 2), dtype=complex)
    mats[:, 0, 0] = cos
    mats[:, 0, 1] = -np.exp(1j * lam) * sin
    mats[:, 1, 0] = np.exp(1j * phi) * sin
    mats[:, 1, 1] = np.exp(1j * (phi + lam)) * cos
    return mats


def _diag_rz(batch, phi):
    entries = np.empty((batch, 2), dtype=complex)
    entries[:, 0] = np.exp(-1j * phi / 2)
    entries[:, 1] = np.exp(1j * phi / 2)
    return entries


def _diag_u1(batch, lam):
    entries = np.empty((batch, 2), dtype=complex)
    entries[:, 0] = 1
    entries[:, 1] = np.exp(1j * lam)
    return entries


def _diag_crz(batch, theta):
    entries = np.empty((batch, 4), dtype=complex)
    entries[:, 0] = 1
    entries[:, 1] = np.exp(-1j * theta / 2)
    entries[:, 2] = 1
    entries[:, 3] = np.exp(1j * theta / 2)
    return entries


def _diag_cu1(batch, lam):
    entries = np.empty((batch, 4), dtype=complex)
    entries[:, 0] = 1
    entries[:, 1] = 1
    entries[:, 2] = 1
    entries[:, 3] = np.exp(1j * lam)
    return entries


def _diag_rzz(batch, theta):
    plus = np.exp(1j * theta / 2)
    minus = np.exp(-1j * theta / 2)
    entries = np.empty((batch, 4), dtype=complex)
    entries[:, 0] = minus
    entries[:, 1] = plus
    entries[:, 2] = plus
    entries[:, 3] = minus
    return entries


#: name -> (step kind, builder).  ``bdense1`` applies a stacked (B, 2, 2)
#: matmul, ``bdiag`` a broadcast diagonal multiply, ``bctrl`` the dense-1q
#: tensor update on the control==1 slice (matching the structural ``ctrl``
#: classification of crx/cry/cu3 at generic angles).
_BOUND_BUILDERS = {
    "rx": ("bdense1", _build_rx),
    "ry": ("bdense1", _build_ry),
    "u2": ("bdense1", _build_u2),
    "u3": ("bdense1", _build_u3),
    "u": ("bdense1", _build_u3),
    "rz": ("bdiag", _diag_rz),
    "u1": ("bdiag", _diag_u1),
    "p": ("bdiag", _diag_u1),
    "crz": ("bdiag", _diag_crz),
    "cu1": ("bdiag", _diag_cu1),
    "cp": ("bdiag", _diag_cu1),
    "rzz": ("bdiag", _diag_rzz),
    "crx": ("bctrl", _build_rx),
    "cry": ("bctrl", _build_ry),
    "cu3": ("bctrl", _build_u3),
}


# ---------------------------------------------------------------------------
# Per-binding step application
# ---------------------------------------------------------------------------


def _kron_stack(mats, stride):
    """Stacked ``kron(m.T, I_stride)`` for a ``(B, 2, 2)`` matrix stack."""
    count = mats.shape[0]
    width = 2 * stride
    operators = np.zeros((count, width, width), dtype=complex)
    diag = np.arange(stride)
    for i in range(2):
        for j in range(2):
            operators[:, i * stride + diag, j * stride + diag] = (
                mats[:, j, i][:, None]
            )
    return operators


def _apply_bound_dense1(states, mats, target):
    """Per-binding dense 1q gate: one broadcast matmul over the row stack."""
    count = states.shape[0]
    stride = 1 << target
    out = kernels._dense_out(states).reshape(states.shape)
    if target <= kernels._KRON_GEMM_MAX_TARGET:
        width = 2 * stride
        operators = _kron_stack(mats, stride)
        np.matmul(
            states.reshape(count, -1, width), operators,
            out=out.reshape(count, -1, width),
        )
    else:
        np.matmul(
            mats[:, None, :, :],
            states.reshape(count, -1, 2, stride),
            out=out.reshape(count, -1, 2, stride),
        )
    kernels._dense_retire(states, True)
    return out


def _diag_tiled(states, entries, targets):
    """Row-wise mirror of :func:`kernels._apply_diag_tiled` (batch=1 shape).

    ``entries`` is ``(rows, 2**k)``, one row per binding.  The tiled
    pattern of one state divides each row exactly, so every amplitude sees
    one multiply by the same value as the single-state path.
    """
    count, dim = states.shape
    rows = entries.shape[0]
    low = [t for t in targets if (1 << t) < kernels._DIAG_TILE_RUN]
    high = sorted(t for t in targets if t not in low)
    length = 1 << (max(low) + 1)
    offsets = np.arange(length)
    pattern = np.zeros(length, dtype=np.intp)
    for position, target in enumerate(targets):
        if target in low:
            pattern += ((offsets // (1 << target)) & 1) << position
    block = (1 << min(high)) if high else dim
    repeats = 1
    while length * repeats * 2 <= min(block, kernels._DIAG_TILE_TARGET):
        repeats *= 2
    if high:
        view, axes = _row_view(states, high)
    for bits in range(1 << len(high)):
        offset = 0
        for position, target in enumerate(targets):
            if target in low:
                continue
            offset |= ((bits >> high.index(target)) & 1) << position
        block_entries = entries[:, pattern + offset]
        if np.all(block_entries == 1):
            continue
        tile = np.tile(block_entries, (1, repeats))
        if high:
            index = [slice(None)] * view.ndim
            for rank, axis in enumerate(axes):
                index[axis] = (bits >> rank) & 1
            sub = view[tuple(index)]
            reshaped = sub.reshape(sub.shape[:-1] + (-1, tile.shape[1]))
            reshaped *= tile.reshape(
                (rows,) + (1,) * (reshaped.ndim - 2) + (tile.shape[1],)
            )
        else:
            states.reshape(count, -1, tile.shape[1])[...] *= tile[:, None, :]


def _apply_bound_diag(states, entries, targets):
    """Per-binding diagonal: broadcast multiply each basis slice.

    An entry column is skipped only when it is 1 for *every* binding (the
    structural constants of cu1/crz); a generic angle landing exactly on a
    unit entry for some binding is the documented ``-0.0`` corner.
    """
    count, dim = states.shape
    if kernels._diag_tile_selected(dim, targets, 1):
        _diag_tiled(states, entries, targets)
        return
    if len(targets) == 1:
        stride = 1 << targets[0]
        narrow = states.reshape(count, -1, 2, stride)
        for j in range(2):
            column = entries[:, j]
            if np.all(column == 1):
                continue
            narrow[:, :, j, :] *= column[:, None, None]
        return
    view, axes = _row_view(states, targets)
    for j in range(entries.shape[1]):
        column = entries[:, j]
        if np.all(column == 1):
            continue
        index = [slice(None)] * view.ndim
        for position, axis in enumerate(axes):
            index[axis] = (j >> position) & 1
        sub = view[tuple(index)]
        sub *= column.reshape((count,) + (1,) * (sub.ndim - 1))


def _bound_dense1_tensor(view, axis, mats):
    """Per-binding mirror of :func:`kernels._apply_dense_1q_tensor`."""
    count = mats.shape[0]
    index0 = kernels._axis_slice(view, axis, 0)
    index1 = kernels._axis_slice(view, axis, 1)
    a0 = view[index0]
    a1 = view[index1]
    shape = (count,) + (1,) * (a0.ndim - 1)
    m00 = mats[:, 0, 0].reshape(shape)
    m01 = mats[:, 0, 1].reshape(shape)
    m10 = mats[:, 1, 0].reshape(shape)
    m11 = mats[:, 1, 1].reshape(shape)
    new0 = m00 * a0 + m01 * a1
    view[index1] = m10 * a0 + m11 * a1
    view[index0] = new0


def _apply_bound_ctrl(states, mats, targets):
    """Controlled per-binding dense 1q (crx/cry/cu3): slice then update."""
    view, axes = _row_view(states, targets)
    control_axis = axes[0]
    sub = view[kernels._axis_slice(view, control_axis, 1)]
    target_axis = axes[1] - 1 if axes[1] > control_axis else axes[1]
    _bound_dense1_tensor(sub, target_axis, mats)


# ---------------------------------------------------------------------------
# Binding a lowered template, and the entry points
# ---------------------------------------------------------------------------


class BroadcastProgram:
    """A lowered template bound to a batch of parameter values.

    ``steps`` are the program's gate steps, in order, with every ``bound``
    step replaced by its per-binding step.  Applying a subset of positions
    — the estimator appends its basis-change steps after the template's
    and applies each term's — slices per-binding arrays by batch-row range
    so chunked execution composes freely.
    """

    def __init__(self, program, parameter_values, parameters=None):
        self.num_qubits = program.num_qubits
        plan = get_bind_plan(program.circuit)
        values = np.asarray(parameter_values, dtype=float)
        if values.ndim != 2:
            raise SimulatorError(
                "parameter values must be a (batch, num_parameters) array"
            )
        if values.shape[0] < 1:
            raise SimulatorError("parameter value batch is empty")
        if parameters is not None:
            parameters = list(parameters)
            if set(parameters) != set(plan.ordered) or len(
                parameters
            ) != len(plan.ordered):
                raise SimulatorError(
                    "parameters do not match the circuit's free parameters"
                )
            if values.shape[1] != len(parameters):
                raise SimulatorError(
                    f"parameter values must have shape (batch, "
                    f"{len(parameters)}), got {values.shape}"
                )
            position = {p: i for i, p in enumerate(parameters)}
            order = [position[p] for p in plan.ordered]
            values = np.ascontiguousarray(values[:, order])
        #: ``(batch, num_parameters)`` in ``plan.ordered`` column order.
        self.values = values
        self.batch = values.shape[0]
        resolved = plan.resolve_arrays(values)
        self.steps = [
            self._bind(step, *resolved[step.data])
            if step.kind == "bound" else step
            for step in program.gates
        ]

    def _bind(self, step, slots, angle_vectors):
        op = step.source
        entry = _BOUND_BUILDERS.get(op.name)
        if entry is None:
            # No vectorized builder (rxx/ryy/custom gates): bind and apply
            # row by row through the ordinary kernels.
            return kernels.Step("brow", (slots, angle_vectors),
                                step.targets, op)
        kind, builder = entry
        arguments = []
        for slot in range(len(op.params)):
            if slot in slots:
                arguments.append(angle_vectors[slots.index(slot)])
            else:
                arguments.append(np.full(self.batch, float(op.params[slot])))
        return kernels.Step(kind, builder(self.batch, *arguments),
                            step.targets, op)

    def apply(self, states, positions, rows):
        """Run the steps at ``positions`` over ``states`` rows ``rows``.

        ``rows`` is the slice of the full batch these state rows represent;
        per-binding step payloads are sliced to match.  The caller owns
        ``states`` and uses only the returned array afterwards (dense steps
        may hand back another buffer).
        """
        num_qubits = self.num_qubits
        start = rows.start or 0
        for position in positions:
            step = self.steps[position]
            if len(step.targets) == num_qubits and states.shape[0] > 1:
                # Each slice of a step spanning every qubit holds one
                # amplitude per row, and numpy rounds a lone complex product
                # apart from a run of them: go row by row, as each row's
                # own run does.
                for row in range(states.shape[0]):
                    states[row] = self.apply(
                        states[row:row + 1].copy(), (position,),
                        slice(start + row, start + row + 1),
                    )[0]
                continue
            kind = step.kind
            if kind == "bdense1":
                states = _apply_bound_dense1(
                    states, step.data[rows], step.targets[0]
                )
            elif kind == "bdiag":
                _apply_bound_diag(states, step.data[rows], step.targets)
            elif kind == "bctrl":
                _apply_bound_ctrl(states, step.data[rows], step.targets)
            elif kind == "brow":
                slots, angle_vectors = step.data
                for row in range(states.shape[0]):
                    params = list(step.source.params)
                    for slot, vector in zip(slots, angle_vectors):
                        params[slot] = float(vector[start + row])
                    bound = step.source.copy()
                    bound._params = params
                    bound._definition = None
                    states[row] = kernels.apply_gate(
                        states[row], bound, step.targets, num_qubits
                    )
            else:
                states = kernels.apply_step(states, step, num_qubits)
        return states

    def fresh_states(self, rows):
        """A ``|0...0>`` row stack."""
        states = np.zeros((rows, 1 << self.num_qubits), dtype=complex)
        states[:, 0] = 1.0
        return states


def _lowered(template) -> Program:
    """The template's program, idle qubits dropped: lowered here, unless
    the caller hands over the one it lowered already."""
    if isinstance(template, Program):
        return template
    return Program(template, strip_idle=True)


def evolve_broadcast(circuit, parameter_values, parameters=None):
    """Final statevectors for every binding, as a ``(batch, 2**n)`` array.

    Statevector-simulator semantics: barriers skipped, trailing measures
    ignored, conditions/reset/mid-circuit measurement rejected.  Row ``b``
    is bitwise identical to ``StatevectorSimulator().run(bound_b)``.
    """
    if circuit.num_qubits == 0:
        raise SimulatorError("cannot simulate a circuit with no qubits")
    program = Program(circuit)
    program.require_static()
    bound = BroadcastProgram(program, parameter_values, parameters)
    positions = range(len(bound.steps))
    out = np.empty((bound.batch, 1 << bound.num_qubits), dtype=complex)
    for start, stop in broadcast_chunk_bounds(bound.batch, bound.num_qubits):
        with get_tracer().span("chunk:evolve", attributes={
            "rows": stop - start, "binding_start": start,
        }):
            out[start:stop] = bound.apply(
                bound.fresh_states(stop - start), positions,
                slice(start, stop),
            )
    return out


def sample_broadcast(circuit, parameter_values, parameters, shots, seeds):
    """Sampled counts per binding, one statevector pass for the whole batch.

    Entry ``b`` is bitwise identical to
    ``QasmSimulator().run(bound_b, shots, seed=seeds[b])`` (noise-free,
    samplable circuits only): like that run, the pass applies every gate
    of the template.  ``circuit`` may also be the template's
    :class:`Program`, lowered with ``strip_idle=True``.
    Returns ``[{"counts", "shots"}, ...]``.
    """
    if shots < 1:
        raise SimulatorError("shots must be positive")
    program = _lowered(circuit)
    if program.circuit.num_qubits == 0:
        raise SimulatorError("circuit has no qubits")
    width = program.circuit.num_clbits
    if width == 0:
        raise SimulatorError(
            "qasm simulation needs classical bits; add measurements"
        )
    if not program.broadcastable:
        raise SimulatorError(
            "broadcast sampling requires a samplable circuit "
            "(no reset, conditions, or mid-circuit measurement)"
        )
    bound = BroadcastProgram(program, parameter_values, parameters)
    if len(seeds) != bound.batch:
        raise SimulatorError("need one seed per parameter binding")
    positions = range(len(bound.steps))
    results = []
    for start, stop in broadcast_chunk_bounds(bound.batch, bound.num_qubits):
        with get_tracer().span("chunk:sample", attributes={
            "rows": stop - start, "binding_start": start, "shots": shots,
        }):
            states = bound.apply(
                bound.fresh_states(stop - start), positions,
                slice(start, stop),
            )
            for row in range(stop - start):
                outcomes = _sample_outcomes(
                    states[row], shots,
                    np.random.default_rng(seeds[start + row]),
                )
                values = _zeros_for_width(shots, width)
                for qubit, clbit in program.measures.items():
                    bits = (outcomes >> qubit) & 1
                    values |= bits.astype(values.dtype) << clbit
                counts, _memory = bin_counts(values, width)
                results.append({"counts": counts, "shots": shots})
    return results


def estimate_broadcast_shots(circuit, parameter_values, parameters,
                             observable, shots, seeds):
    """Shots-mode ``<H>`` per binding via broadcast sampling.

    Entry ``b`` is bitwise identical to
    ``ExpectationEstimator(observable, mode="shots", shots=shots,
    seed=seeds[b]).estimate(bound_b)``.  The whole template evolves once
    per chunk; each term then applies only its basis-change rotations
    (lowered once per ``(gate, qubit)``) to a copy, which is what its
    term circuit applies after the template, and samples under the same
    derived seed, in the same float accumulation order.  ``circuit`` may
    also be the template's :class:`Program` (see :func:`sample_broadcast`);
    it must be ``estimable``.
    """
    from repro.algorithms.expectation import (
        measurement_basis_change,
        measurement_terms,
    )

    program = _lowered(circuit)
    num_qubits = program.num_qubits
    if observable.num_qubits != program.circuit.num_qubits:
        raise SimulatorError("circuit width does not match the observable")
    if not program.estimable:
        raise SimulatorError(
            "broadcast estimation requires a measurement-free template "
            "using every qubit"
        )
    bound = BroadcastProgram(program, parameter_values, parameters)
    if len(seeds) != bound.batch:
        raise SimulatorError("need one seed per parameter binding")
    base, terms = measurement_terms(observable)
    if not terms:
        return [base] * bound.batch
    size = len(bound.steps)
    numbered: dict = {}  # (gate name, qubit) -> its step position
    term_plans = []  # (coeff, parity mask, rotation positions) per term
    for _index, coeff, pauli in terms:
        rotations = []
        for gate, qubit in measurement_basis_change(pauli):
            key = (gate.name, qubit)
            if key not in numbered:
                numbered[key] = len(bound.steps)
                bound.steps.append(kernels.gate_step(gate, [qubit]))
            rotations.append(numbered[key])
        mask = sum(1 << qubit for qubit in pauli.support)
        term_plans.append((coeff, mask, rotations))

    energies = [base] * bound.batch
    for start, stop in broadcast_chunk_bounds(bound.batch, num_qubits):
        with get_tracer().span("chunk:estimate", attributes={
            "rows": stop - start, "binding_start": start, "shots": shots,
        }):
            rows = slice(start, stop)
            final = bound.apply(bound.fresh_states(stop - start),
                                range(size), rows)
            # Dense steps hand their input buffer to the kernels' scratch
            # pool and return another; ``final`` is never a step's input,
            # so it never reaches the pool and every term copies it intact.
            work = np.empty_like(final)
            term_seeds = [
                derive_experiment_seeds(seeds[start + row], len(term_plans))
                for row in range(stop - start)
            ]
            for term_index, (coeff, mask, rotations) in enumerate(
                term_plans
            ):
                np.copyto(work, final)
                work = bound.apply(work, rotations, rows)
                # <P> from counts is (#even-parity - #odd-parity) / shots — an
                # exact integer accumulator divided once — so computing the
                # parity tally straight off the outcome integers reproduces
                # expectation_from_counts(bin_counts(...)) bitwise while
                # skipping the bitstring rendering entirely.
                for row in range(stop - start):
                    outcomes = _sample_outcomes(
                        work[row], shots,
                        np.random.default_rng(term_seeds[row][term_index]),
                    )
                    odd = int(
                        (np.bitwise_count(outcomes & mask) & 1).sum()
                    )
                    energies[start + row] += coeff * (
                        (shots - 2 * odd) / shots
                    )
    return energies
