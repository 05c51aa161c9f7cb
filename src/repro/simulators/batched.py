"""Parameter-axis broadcast engine — batched statevector evolution.

The V2 primitives evaluate one parameterized template at a whole array of
parameter value sets.  Evolving each binding separately repeats every
binding-independent gate ``batch`` times; this module instead stacks the
states into one C-contiguous ``(batch, 2**n)`` array and applies each gate
across the batch axis in a handful of numpy ops:

* **shared** gates (no unbound parameters) apply identically to every row:
  dense blocks go through one flat GEMM / stacked matmul over all rows at
  once, diagonal/permutation/controlled structures reuse the slice kernels
  of :mod:`repro.simulators.kernels` on a batch-leading compact view;
* **per-binding** gates (``rx``/``rz``/``u3``/``crz``/... with symbolic
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
identical to a per-binding loop under the same seeds.  The only documented
exception: a binding sitting exactly on a structural corner (``rx(0)``,
``rx(pi)``, a generically-parameterized diagonal entry landing on ``1``)
may flip the sign of a ``-0.0`` component, because the single-state path
reclassifies such matrices structurally while the batch path dispatches by
gate name.

Memory model: the working set is two ``(chunk, 2**n)`` complex buffers.
The batch axis is chunked so one buffer never exceeds
``MAX_BROADCAST_AMPLITUDES`` amplitudes (64 MiB at complex128), i.e.
``chunk = max(1, MAX_BROADCAST_AMPLITUDES // 2**n)`` rows at a time.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.parameterbinding import get_bind_plan
from repro.exceptions import SimulatorError
from repro.qobj.assembler import derive_experiment_seeds
from repro.simulators import kernels
from repro.simulators.qasm_simulator import (
    QasmSimulator,
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


def broadcast_supported(circuit) -> bool:
    """True when one broadcast pass can stand in for the per-binding runs.

    Every operation must be a gate, a barrier or a measurement, and the
    circuit must be samplable (no condition, reset, gate after a
    measurement on its qubit, or clbit written twice).
    """
    return QasmSimulator._samplable(circuit) and all(
        item.operation.name in ("barrier", "measure")
        or isinstance(item.operation, Gate)
        for item in circuit.data
    )


# ---------------------------------------------------------------------------
# Batch-leading views and shared-gate application
#
# ``states`` everywhere below is ``(B, 2**n)`` C-contiguous complex128: each
# row is one binding's full state, itself contiguous, so any per-row
# operation is *the* single-state operation.
# ---------------------------------------------------------------------------


def _batch_view(states, targets, num_qubits):
    """Batch-leading analogue of :func:`kernels._compact_view`.

    Same compact shape per row with an extra leading batch axis; returned
    ``axes`` are the single-state axes shifted by one.
    """
    descending = sorted(targets, reverse=True)
    shape = [states.shape[0]]
    prev = num_qubits
    for qubit in descending:
        shape.append(1 << (prev - qubit - 1))
        shape.append(2)
        prev = qubit
    shape.append(1 << prev)
    position = {qubit: 2 + 2 * i for i, qubit in enumerate(descending)}
    return states.reshape(shape), [position[qubit] for qubit in targets]


def _apply_shared_sliced(states, descriptor, targets, num_qubits):
    """Apply a non-dense shared descriptor to every row at once."""
    if descriptor[0] == "diag":
        if kernels._diag_tile_selected(states.shape[1], targets, 1):
            _diag_tiled(states, descriptor[1][None, :], targets, num_qubits)
            return
        if len(targets) == 1:
            d0, d1 = descriptor[1]
            stride = 1 << targets[0]
            narrow = states.reshape(-1, 2, stride)
            if d0 != 1:
                narrow[:, 0, :] *= d0
            if d1 != 1:
                narrow[:, 1, :] *= d1
            return
    view, axes = _batch_view(states, targets, num_qubits)
    kernels._dispatch_sliced(view, axes, descriptor)


def _apply_shared_dense(states, scratch, matrix, lowest):
    """Dense shared gate on a contiguous ascending block for all rows.

    The flat reshape never crosses a row boundary (the gate's span divides
    ``2**n``), so this is the per-row low/high dense kernel verbatim.
    Returns the ping-ponged ``(states, scratch)`` pair.
    """
    dim = matrix.shape[0]
    stride = 1 << lowest
    if lowest <= kernels._KRON_GEMM_MAX_TARGET:
        operator = kernels._kron_gemm_operator(matrix, stride)
        width = dim * stride
        np.matmul(
            states.reshape(-1, width), operator,
            out=scratch.reshape(-1, width),
        )
    else:
        np.matmul(
            matrix,
            states.reshape(-1, dim, stride),
            out=scratch.reshape(-1, dim, stride),
        )
    return scratch, states


def _make_shared_step(op, targets, num_qubits):
    """Compile one binding-independent operation into a step tuple.

    Mirrors the dispatch decisions of :func:`kernels.apply_gate` exactly so
    every row sees the same arithmetic the single-state path would use.
    """
    diagonal = getattr(op, "diagonal", None)
    if diagonal is not None:
        vector = np.ascontiguousarray(diagonal, dtype=complex)
        return ("ssliced", ("diag", vector), targets)
    if len(targets) > kernels._MAX_ANALYZED_QUBITS:
        return ("srow", op, targets)
    matrix = np.ascontiguousarray(op.to_matrix(), dtype=complex)
    descriptor = kernels._analysis(matrix)
    if descriptor[0] != "dense":
        return ("ssliced", descriptor, targets)
    if len(targets) > 1 and not kernels._is_contiguous_block(targets):
        return ("srow", op, targets)
    lowest = min(targets)
    positions = [t - lowest for t in targets]
    if positions != list(range(len(targets))):
        matrix = kernels._permute_gate_qubits(matrix, positions)
    return ("sdense", matrix, lowest)


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


def _apply_bound_dense1(states, scratch, mats, target):
    """Per-binding dense 1q gate: one broadcast matmul over the row stack."""
    count = states.shape[0]
    stride = 1 << target
    if target <= kernels._KRON_GEMM_MAX_TARGET:
        width = 2 * stride
        operators = _kron_stack(mats, stride)
        np.matmul(
            states.reshape(count, -1, width), operators,
            out=scratch.reshape(count, -1, width),
        )
    else:
        np.matmul(
            mats[:, None, :, :],
            states.reshape(count, -1, 2, stride),
            out=scratch.reshape(count, -1, 2, stride),
        )
    return scratch, states


def _diag_tiled(states, entries, targets, num_qubits):
    """Row-wise mirror of :func:`kernels._apply_diag_tiled` (batch=1 shape).

    ``entries`` is ``(rows, 2**k)``: one row per binding, or a single row
    that broadcasting applies to every binding (a shared diagonal).  The
    tiled pattern of one state divides each row exactly, so either way
    every amplitude sees one multiply by the same value as the
    single-state path.
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
        view, axes = _batch_view(states, high, num_qubits)
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


def _apply_bound_diag(states, entries, targets, num_qubits):
    """Per-binding diagonal: broadcast multiply each basis slice.

    An entry column is skipped only when it is 1 for *every* binding (the
    structural constants of cu1/crz); a generic angle landing exactly on a
    unit entry for some binding is the documented ``-0.0`` corner.
    """
    count, dim = states.shape
    if kernels._diag_tile_selected(dim, targets, 1):
        _diag_tiled(states, entries, targets, num_qubits)
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
    view, axes = _batch_view(states, targets, num_qubits)
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


def _apply_bound_ctrl(states, mats, targets, num_qubits):
    """Controlled per-binding dense 1q (crx/cry/cu3): slice then update."""
    view, axes = _batch_view(states, targets, num_qubits)
    control_axis = axes[0]
    sub = view[kernels._axis_slice(view, control_axis, 1)]
    target_axis = axes[1] - 1 if axes[1] > control_axis else axes[1]
    _bound_dense1_tensor(sub, target_axis, mats)


# ---------------------------------------------------------------------------
# Program compilation and execution
# ---------------------------------------------------------------------------


class BroadcastProgram:
    """One circuit structure compiled against a batch of parameter values.

    Every ``circuit.data`` position maps to a precompiled step (or ``None``
    for barriers/measures); applying a subset of positions — the estimator
    appends its basis-change steps after the template's and applies each
    term's — slices per-binding arrays by batch-row range so chunked
    execution composes freely.  The entry points below check that every
    other operation is a plain gate.
    """

    def __init__(self, circuit, parameter_values, parameters=None):
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self.plan = get_bind_plan(circuit)
        values = np.asarray(parameter_values, dtype=float)
        if values.ndim != 2:
            raise SimulatorError(
                "parameter values must be a (batch, num_parameters) array"
            )
        if values.shape[0] < 1:
            raise SimulatorError("parameter value batch is empty")
        if parameters is not None:
            parameters = list(parameters)
            if set(parameters) != set(self.plan.ordered) or len(
                parameters
            ) != len(self.plan.ordered):
                raise SimulatorError(
                    "parameters do not match the circuit's free parameters"
                )
            if values.shape[1] != len(parameters):
                raise SimulatorError(
                    f"parameter values must have shape (batch, "
                    f"{len(parameters)}), got {values.shape}"
                )
            order = [parameters.index(p) for p in self.plan.ordered]
            values = np.ascontiguousarray(values[:, order])
        #: ``(batch, num_parameters)`` in ``plan.ordered`` column order.
        self.values = values
        self.batch = values.shape[0]
        resolved = self.plan.resolve_arrays(values)
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
        #: measured qubit -> clbit (data order, later measures overwrite).
        self.measures: dict = {}
        self.steps: list = []
        for index, item in enumerate(circuit.data):
            op = item.operation
            if op.name == "barrier":
                self.steps.append(None)
                continue
            if op.name == "measure":
                self.measures[qubit_index[item.qubits[0]]] = clbit_index[
                    item.clbits[0]
                ]
                self.steps.append(None)
                continue
            targets = [qubit_index[q] for q in item.qubits]
            if index in resolved:
                self.steps.append(
                    self._make_bound_step(op, targets, resolved[index])
                )
            else:
                self.steps.append(
                    _make_shared_step(op, targets, self.num_qubits)
                )

    def _make_bound_step(self, op, targets, resolved):
        slots, angle_vectors = resolved
        entry = _BOUND_BUILDERS.get(op.name)
        if entry is None:
            # No vectorized builder (rxx/ryy/custom gates): bind and apply
            # row by row through the ordinary kernels.
            return ("brow", op, slots, angle_vectors, targets)
        kind, builder = entry
        arguments = []
        for slot in range(len(op.params)):
            if slot in slots:
                arguments.append(angle_vectors[slots.index(slot)])
            else:
                arguments.append(np.full(self.batch, float(op.params[slot])))
        payload = builder(self.batch, *arguments)
        return (kind, payload, targets)

    def apply(self, states, scratch, positions, rows):
        """Run the steps at ``positions`` over ``states`` rows ``rows``.

        ``rows`` is the slice of the full batch these state rows represent;
        per-binding step payloads are sliced to match.  Returns the
        (possibly swapped) ``(states, scratch)`` buffer pair.
        """
        num_qubits = self.num_qubits
        for position in positions:
            step = self.steps[position]
            if step is None:
                continue
            kind = step[0]
            if kind == "sdense":
                states, scratch = _apply_shared_dense(
                    states, scratch, step[1], step[2]
                )
            elif kind == "ssliced":
                _apply_shared_sliced(states, step[1], step[2], num_qubits)
            elif kind == "srow":
                for row in range(states.shape[0]):
                    states[row] = kernels.apply_gate(
                        states[row], step[1], step[2], num_qubits
                    )
            elif kind == "bdense1":
                states, scratch = _apply_bound_dense1(
                    states, scratch, step[1][rows], step[2][0]
                )
            elif kind == "bdiag":
                _apply_bound_diag(
                    states, step[1][rows], step[2], num_qubits
                )
            elif kind == "bctrl":
                _apply_bound_ctrl(
                    states, step[1][rows], step[2], num_qubits
                )
            else:  # brow
                _, op, slots, angle_vectors, targets = step
                start = rows.start or 0
                for row in range(states.shape[0]):
                    params = list(op.params)
                    for slot, vector in zip(slots, angle_vectors):
                        params[slot] = float(vector[start + row])
                    bound = op.copy()
                    bound._params = params
                    bound._definition = None
                    states[row] = kernels.apply_gate(
                        states[row], bound, targets, num_qubits
                    )
        return states, scratch

    def fresh_buffers(self, rows):
        """A zeroed ``|0...0>`` row stack and a matching scratch buffer."""
        states = np.zeros((rows, 1 << self.num_qubits), dtype=complex)
        states[:, 0] = 1.0
        return states, np.empty_like(states)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def evolve_broadcast(circuit, parameter_values, parameters=None):
    """Final statevectors for every binding, as a ``(batch, 2**n)`` array.

    Statevector-simulator semantics: barriers skipped, trailing measures
    ignored, conditions/reset/mid-circuit measurement rejected.  Row ``b``
    is bitwise identical to ``StatevectorSimulator().run(bound_b)``.
    """
    if circuit.num_qubits == 0:
        raise SimulatorError("cannot simulate a circuit with no qubits")
    measured: set = set()
    for item in circuit.data:
        op = item.operation
        if op.name == "barrier":
            continue
        if op.name == "measure":
            measured.add(item.qubits[0])
            continue
        if op.condition is not None:
            raise SimulatorError(
                "classical conditions require the qasm simulator"
            )
        if op.name == "reset":
            raise SimulatorError("reset requires the qasm simulator")
        if not isinstance(op, Gate):
            raise SimulatorError(f"cannot simulate operation '{op.name}'")
        for qubit in item.qubits:
            if qubit in measured:
                raise SimulatorError(
                    "gate after measurement requires the qasm simulator"
                )
    program = BroadcastProgram(circuit, parameter_values, parameters)
    positions = range(len(circuit.data))
    out = np.empty((program.batch, 1 << program.num_qubits), dtype=complex)
    for start, stop in broadcast_chunk_bounds(
        program.batch, program.num_qubits
    ):
        with get_tracer().span("chunk:evolve", attributes={
            "rows": stop - start, "binding_start": start,
        }):
            states, scratch = program.fresh_buffers(stop - start)
            states, _ = program.apply(
                states, scratch, positions, slice(start, stop)
            )
            out[start:stop] = states
    return out


def sample_broadcast(circuit, parameter_values, parameters, shots, seeds):
    """Sampled counts per binding, one statevector pass for the whole batch.

    Entry ``b`` is bitwise identical to
    ``QasmSimulator().run(bound_b, shots, seed=seeds[b])`` (noise-free,
    samplable circuits only): like that run, the pass applies every gate
    of the template.
    Returns ``[{"counts", "shots"}, ...]``.
    """
    if shots < 1:
        raise SimulatorError("shots must be positive")
    if circuit.num_qubits == 0:
        raise SimulatorError("circuit has no qubits")
    if circuit.num_clbits == 0:
        raise SimulatorError(
            "qasm simulation needs classical bits; add measurements"
        )
    stripped = QasmSimulator._strip_idle_qubits(circuit)
    if not broadcast_supported(stripped):
        raise SimulatorError(
            "broadcast sampling requires a samplable circuit "
            "(no reset, conditions, or mid-circuit measurement)"
        )
    program = BroadcastProgram(stripped, parameter_values, parameters)
    if len(seeds) != program.batch:
        raise SimulatorError("need one seed per parameter binding")
    positions = range(len(stripped.data))
    width = stripped.num_clbits
    results = []
    for start, stop in broadcast_chunk_bounds(
        program.batch, program.num_qubits
    ):
        with get_tracer().span("chunk:sample", attributes={
            "rows": stop - start, "binding_start": start, "shots": shots,
        }):
            states, scratch = program.fresh_buffers(stop - start)
            states, _ = program.apply(
                states, scratch, positions, slice(start, stop)
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


def estimator_broadcastable(circuit) -> bool:
    """Whether the shots-mode broadcast estimator reproduces the loop path.

    The per-binding comparator routes each term circuit through
    ``QasmSimulator.run``, which strips idle qubits; a template leaving any
    qubit untouched would then be sampled at a smaller width than the
    broadcast evolution uses.  Measurements in the template land
    mid-circuit after composition.  The backend runs both cases per
    binding instead.
    """
    if not broadcast_supported(circuit):
        return False
    used: set = set()
    for item in circuit.data:
        if item.operation.name == "measure":
            return False
        used.update(item.qubits)
    return len(used) == circuit.num_qubits


def estimate_broadcast_shots(circuit, parameter_values, parameters,
                             observable, shots, seeds):
    """Shots-mode ``<H>`` per binding via broadcast sampling.

    Entry ``b`` is bitwise identical to
    ``ExpectationEstimator(observable, mode="shots", shots=shots,
    seed=seeds[b]).estimate(bound_b)``.  The whole template evolves once
    per chunk; each term then applies only its basis-change rotations
    (compiled once per ``(gate, qubit)``) to a copy, which is what its
    term circuit applies after the template, and samples under the same
    derived seed, in the same float accumulation order.
    """
    from repro.algorithms.expectation import (
        measurement_basis_change,
        measurement_terms,
    )

    num_qubits = circuit.num_qubits
    if observable.num_qubits != num_qubits:
        raise SimulatorError("circuit width does not match the observable")
    if not estimator_broadcastable(circuit):
        raise SimulatorError(
            "broadcast estimation requires a measurement-free template "
            "using every qubit"
        )
    program = BroadcastProgram(circuit, parameter_values, parameters)
    if len(seeds) != program.batch:
        raise SimulatorError("need one seed per parameter binding")
    base, terms = measurement_terms(observable)
    if not terms:
        return [base] * program.batch
    size = len(program.steps)
    numbered: dict = {}  # (gate name, qubit) -> its program position
    term_plans = []  # (coeff, parity mask, rotation positions) per term
    for _index, coeff, pauli in terms:
        rotations = []
        for gate, qubit in measurement_basis_change(pauli):
            key = (gate.name, qubit)
            if key not in numbered:
                numbered[key] = len(program.steps)
                program.steps.append(
                    _make_shared_step(gate, [qubit], num_qubits)
                )
            rotations.append(numbered[key])
        mask = sum(1 << qubit for qubit in pauli.support)
        term_plans.append((coeff, mask, rotations))

    energies = [base] * program.batch
    for start, stop in broadcast_chunk_bounds(program.batch, num_qubits):
        with get_tracer().span("chunk:estimate", attributes={
            "rows": stop - start, "binding_start": start, "shots": shots,
        }):
            rows = slice(start, stop)
            final, scratch = program.fresh_buffers(stop - start)
            final, scratch = program.apply(final, scratch, range(size), rows)
            work = np.empty_like(final)
            term_seeds = [
                derive_experiment_seeds(seeds[start + row], len(term_plans))
                for row in range(stop - start)
            ]
            for term_index, (coeff, mask, rotations) in enumerate(
                term_plans
            ):
                np.copyto(work, final)
                states, aux = program.apply(work, scratch, rotations, rows)
                # <P> from counts is (#even-parity - #odd-parity) / shots — an
                # exact integer accumulator divided once — so computing the
                # parity tally straight off the outcome integers reproduces
                # expectation_from_counts(bin_counts(...)) bitwise while
                # skipping the bitstring rendering entirely.
                for row in range(stop - start):
                    outcomes = _sample_outcomes(
                        states[row], shots,
                        np.random.default_rng(term_seeds[row][term_index]),
                    )
                    odd = int(
                        (np.bitwise_count(outcomes & mask) & 1).sum()
                    )
                    energies[start + row] += coeff * (
                        (shots - 2 * odd) / shots
                    )
                # Dense ping-pong permutes {work, scratch}; final is never
                # handed out as an output buffer, so rebinding keeps the trio
                # distinct for the next term's copy.
                work, scratch = states, aux
    return energies
