"""Specialized dense gate kernels — the fast paths of every array simulator.

The generic :func:`repro.circuit.matrix_utils.apply_matrix` routes every gate
through one ``np.tensordot`` plus two full-state copies (axis restore and
reshape).  Real circuits are dominated by a handful of structured cases that
admit much cheaper updates, the same split mature stacks use for their dense
engines (Sec. V-A of the paper: simulation "boils down to a sequence of
matrix-vector multiplications" — so make the common multiplications cheap):

* **diagonal** gates (``z  s  t  rz  u1  cz  cp  rzz`` ...): elementwise
  multiplies of amplitude slices, no matrix product at all;
* **permutation** gates (``x  cx  swap  ccx  cswap`` and any other monomial
  matrix): pure index moves along a cycle decomposition, plus a phase where
  the nonzero entries are not 1 (``y``, ``cy``);
* **controlled-unitary** gates (``ch  crx  cry  cu3`` ...): the base matrix
  applied only to the slice where every control bit is 1;
* **dense single-qubit** gates: one small matrix product over a strided view
  — a stacked ``(2, 2) @ (2, R)`` matmul for high targets, or a single BLAS
  GEMM against ``kron(U^T, I)`` for low targets where the strided row length
  would be too short;
* **dense two-qubit** gates on adjacent targets: the same two strategies
  with a ``(4, 4)`` matrix.

Everything else falls back to ``apply_matrix``, which stays the reference
implementation; the property tests assert agreement to 1e-12.

Dispatch is *structural*: the matrix itself is classified (cached by its
bytes), so the fast paths also cover unitary noise branches, diagonal
``UnitaryGate``s, and anything else with exploitable shape — not just gates
recognized by name.

A classified gate application is a :class:`Step` (kernel kind,
precomputed descriptor, targets).  :class:`repro.simulators.program.Program`
lowers a whole circuit into steps once, and :func:`apply_step` is the one
dispatch every statevector path runs them through, whatever the layout:

* **rows** — ``R`` states stacked as a C-contiguous ``(R, 2**n)`` array
  (the broadcast engine's bindings; a lone state is one row).  Rows fold
  into the leading extent of every view, and every decision (the tiled
  diagonal, the low-target GEMM) is taken on one row's size, so each row
  sees exactly the arithmetic of its own one-row run;
* **columns** — ``(2**n, B)`` for ``B`` column vectors (the batched-noise
  shots, ``Operator.from_circuit``'s identity), the trailing ``batch``
  factor of every stride, as ``apply_matrix`` lays them out.

Little-endian qubit indexing throughout.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.circuit.matrix_utils import apply_matrix

#: Master switch.  ``disabled()`` flips it off so benchmarks (and debugging)
#: can compare against the generic tensordot path.
ENABLED = True

#: Largest gate size (in qubits) the structural analyzer inspects.
_MAX_ANALYZED_QUBITS = 3

#: For dense 1q/2q gates on low target qubits the strided rows are too short
#: for efficient stacked matmul; below this target index we use one big GEMM
#: against ``kron(U^T, I_R)`` instead.
_KRON_GEMM_MAX_TARGET = 4

#: Structure-analysis tolerance, relative to the matrix's largest entry.
_STRUCTURE_RTOL = 1e-15

_ANALYSIS_CACHE: OrderedDict = OrderedDict()
_ANALYSIS_CACHE_SIZE = 1024

_KRON_W_CACHE: OrderedDict = OrderedDict()
_KRON_W_CACHE_SIZE = 128


class disabled:
    """Context manager that routes everything through ``apply_matrix``."""

    def __enter__(self):
        global ENABLED
        self._previous = ENABLED
        ENABLED = False
        return self

    def __exit__(self, *exc):
        global ENABLED
        ENABLED = self._previous
        return False


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------


def _classify(matrix: np.ndarray, tol: float):
    """Classify one matrix; see module docstring for the descriptor kinds.

    Returns one of::

        ("diag", diagonal_vector)
        ("perm", rows, phases)        # column c maps to row rows[c], scaled
        ("ctrl", inner_descriptor)    # identity unless the low qubit is 1
        ("dense", matrix)
    """
    dim = matrix.shape[0]
    off_diagonal = matrix - np.diag(np.diagonal(matrix))
    if np.abs(off_diagonal).max(initial=0.0) <= tol:
        return ("diag", np.ascontiguousarray(np.diagonal(matrix)))
    significant = np.abs(matrix) > tol
    if (significant.sum(axis=0) == 1).all() and (significant.sum(axis=1) == 1).all():
        rows = significant.argmax(axis=0)
        phases = matrix[rows, np.arange(dim)]
        return ("perm", rows, phases)
    if dim >= 4:
        # Controlled on the least-significant qubit: even rows/columns are
        # the identity, and the odd/odd block is the base operation.  This
        # is the layout of ``controlled_matrix`` in the standard library.
        even = matrix[::2, ::2]
        if (
            np.abs(even - np.eye(dim // 2)).max() <= tol
            and np.abs(matrix[::2, 1::2]).max() <= tol
            and np.abs(matrix[1::2, ::2]).max() <= tol
        ):
            inner = _classify(matrix[1::2, 1::2], tol)
            if inner[0] != "dense" or inner[1].shape[0] == 2:
                return ("ctrl", inner)
    return ("dense", matrix)


def _analysis(matrix: np.ndarray):
    """Cached structural classification of ``matrix``."""
    key = (matrix.shape[0], matrix.tobytes())
    descriptor = _ANALYSIS_CACHE.get(key)
    if descriptor is None:
        tol = _STRUCTURE_RTOL * max(1.0, float(np.abs(matrix).max(initial=0.0)))
        descriptor = _classify(matrix, tol)
        _ANALYSIS_CACHE[key] = descriptor
        while len(_ANALYSIS_CACHE) > _ANALYSIS_CACHE_SIZE:
            _ANALYSIS_CACHE.popitem(last=False)
    else:
        _ANALYSIS_CACHE.move_to_end(key)
    return descriptor


class Step:
    """One lowered operation: kernel ``kind``, its precomputed ``data``,
    and its ``targets``.

    Gate kinds and their ``data``: ``diag``/``perm``/``ctrl`` hold the
    structural descriptor, ``dense`` the matrix reordered for its ascending
    contiguous target block, and ``matrix`` nothing (``apply_matrix`` on
    the full matrix: gates wider than three qubits or dense on scattered
    targets).  ``source`` is the gate (or bare matrix) the step came from;
    :meth:`matrix` rebuilds the full matrix from it for the reference path
    (:func:`apply_diagonal`'s bare vector has none: it takes the reference
    path before building its step).
    A program also lowers ``measure``/``reset`` steps and tags gate steps
    with their classical ``condition`` and noise ``error``.
    """

    __slots__ = ("kind", "data", "targets", "source", "condition", "error")

    def __init__(self, kind, data, targets, source=None):
        self.kind = kind
        self.data = data
        self.targets = targets
        self.source = source
        self.condition = None
        self.error = None

    def matrix(self):
        """The full ``2**k x 2**k`` matrix of a gate step."""
        source = self.source
        if isinstance(source, np.ndarray):
            return source
        return source.to_matrix()


def matrix_step(matrix, targets, source=None) -> Step:
    """Classify ``matrix`` on ``targets`` into the step of its fastest kernel."""
    targets = list(targets)
    if len(targets) > _MAX_ANALYZED_QUBITS:
        return Step("matrix", None, targets,
                    matrix if source is None else source)
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    if source is None:
        source = matrix
    descriptor = _analysis(matrix)
    if descriptor[0] != "dense":
        return Step(descriptor[0], descriptor, targets, source)
    if len(targets) > 1:
        if not _is_contiguous_block(targets):
            return Step("matrix", None, targets, source)
        # Reorder the gate's qubits to match ascending targets, so the 1q
        # machinery applies with a wider matrix.
        lowest = min(targets)
        positions = [t - lowest for t in targets]
        if positions != list(range(len(targets))):
            matrix = _permute_gate_qubits(matrix, positions)
    return Step("dense", matrix, targets, source)


def gate_step(gate, targets) -> Step:
    """The step of one gate application.

    Gates that carry their diagonal vector (``DiagonalGate``) stay a
    vector: no dense matrix is built and no width cap applies.
    """
    diagonal = getattr(gate, "diagonal", None)
    if diagonal is not None:
        vector = np.ascontiguousarray(diagonal, dtype=complex)
        return Step("diag", ("diag", vector), list(targets), gate)
    return matrix_step(gate.to_matrix(), targets, gate)


# ---------------------------------------------------------------------------
# Kernel primitives
#
# ``flat`` below is the C-contiguous state raveled to 1D; a batch of B
# columns folds into the trailing (least-significant) end of the index, so
# qubit q occupies a stride of ``2**q * B`` flat elements, and stacked rows
# fold into the leading end.
# ---------------------------------------------------------------------------


def _axis_slice(tensor, axis, index):
    full = [slice(None)] * tensor.ndim
    full[axis] = index
    return tuple(full)


def _compact_view(flat, targets, batch):
    """Reshape ``flat`` splitting out only the target qubits.

    Returns ``(view, axes)`` with ``axes[i]`` the view axis of ``targets[i]``.
    Non-target qubits stay merged into large contiguous blocks, so the slice
    kernels below iterate over a few long runs instead of the size-2 inner
    loops a full ``(2,)*n`` tensor view would force on numpy's iterator.
    The leading extent is ``-1``: the qubits above the highest target and,
    for a row stack, the rows.
    """
    descending = sorted(targets, reverse=True)
    shape = [-1, 2]
    for higher, qubit in zip(descending, descending[1:]):
        shape += [1 << (higher - qubit - 1), 2]
    shape.append((1 << descending[-1]) * batch)
    position = {qubit: 1 + 2 * i for i, qubit in enumerate(descending)}
    return flat.reshape(shape), [position[qubit] for qubit in targets]


def _apply_diag_tensor(view, axes, diagonal):
    """Multiply each target-basis slice of ``view`` by its diagonal entry."""
    if len(axes) == 1:
        d0, d1 = diagonal
        if d0 != 1:
            view[_axis_slice(view, axes[0], 0)] *= d0
        if d1 != 1:
            view[_axis_slice(view, axes[0], 1)] *= d1
        return
    for j, entry in enumerate(diagonal):
        if entry == 1:
            continue
        index = [slice(None)] * view.ndim
        for position, axis in enumerate(axes):
            index[axis] = (j >> position) & 1
        view[tuple(index)] *= entry


_DIAG_TILE_RUN = 32
_DIAG_TILE_TARGET = 8192

#: Below this many state elements the tiled diagonal's pattern setup
#: (arange + fancy index + tile) costs more than the short strided runs it
#: avoids — measured crossover on small states (n=10: narrow 7-9us vs
#: tiled 27-31us).
_DIAG_TILE_MIN_SIZE = 8192

#: A single target at flat stride 1 keeps the narrow/tensor slices fully
#: contiguous, so the tiled rewrite only wins once the state is large
#: enough that halving the number of multiply passes dominates (measured:
#: n=14 narrow 21.6us vs tiled 45.2us; n=18 tiled 349us vs narrow 557us).
_DIAG_TILE_UNIT_STRIDE_MIN = 1 << 18


def _diag_tile_selected(size, targets, batch):
    """Whether the tiled diagonal path is the measured winner.

    ``size`` is one row's flat element count (``2**n * batch``).  The
    decision is a pure function of structure — target strides and row
    size — so a row stack takes it exactly as each of its rows alone would,
    and so does the broadcast engine's per-binding diagonal.
    """
    stride = (1 << min(targets)) * batch
    if stride >= _DIAG_TILE_RUN:
        return False
    if size < _DIAG_TILE_MIN_SIZE:
        return False
    if len(targets) == 1 and stride == 1 and size < _DIAG_TILE_UNIT_STRIDE_MIN:
        return False
    return True


def _apply_diag_tiled(flat, diagonal, targets, num_qubits, batch):
    """Diagonal multiply with low-qubit targets folded into a tiled vector.

    A target on a low qubit makes every per-entry slice decompose into very
    short strided runs, where numpy's iterator overhead swamps the actual
    arithmetic.  Instead, build one small periodic vector holding the
    diagonal's pattern over the low targets and broadcast-multiply it across
    long contiguous blocks: sequential bandwidth, no short inner loops.  The
    unit entries get multiplied too (a 1.0 no-op), which is the accepted
    traffic tradeoff — it only wins when the runs are genuinely short, hence
    the ``_DIAG_TILE_RUN`` gate in the dispatcher.
    """
    low = [t for t in targets if (1 << t) * batch < _DIAG_TILE_RUN]
    high = sorted(t for t in targets if t not in low)
    length = (1 << (max(low) + 1)) * batch
    offsets = np.arange(length)
    pattern = np.zeros(length, dtype=np.intp)
    for position, target in enumerate(targets):
        if target in low:
            pattern += ((offsets // ((1 << target) * batch)) & 1) << position
    block = (1 << (min(high) if high else num_qubits)) * batch
    repeats = 1
    while length * repeats * 2 <= min(block, _DIAG_TILE_TARGET):
        repeats *= 2
    if high:
        view, axes = _compact_view(flat, high, batch)
    for bits in range(1 << len(high)):
        offset = 0
        for position, target in enumerate(targets):
            if target in low:
                continue
            offset |= ((bits >> high.index(target)) & 1) << position
        entries = diagonal[pattern + offset]
        if np.all(entries == 1):
            continue
        tile = np.tile(entries, repeats)
        if high:
            index = [slice(None)] * view.ndim
            for rank, axis in enumerate(axes):
                index[axis] = (bits >> rank) & 1
            sub = view[tuple(index)]
            sub.reshape(sub.shape[:-1] + (-1, tile.size))[...] *= tile
        else:
            flat.reshape(-1, tile.size)[...] *= tile


_SWAP_CHUNK_ELEMS = 8192


def _chunked_swap(a, b):
    """In-place swap of two equal-shape slices via a cache-resident temp.

    Swapping through a full-size temporary streams the state three times;
    chunking along the leading axis keeps the temp hot in cache and the
    interleaved reads of ``a``/``b`` near-sequential.
    """
    if a.ndim == 0 or a.shape[0] <= 1 or a.size <= _SWAP_CHUNK_ELEMS:
        saved = a.copy()
        a[...] = b
        b[...] = saved
        return
    rows = max(1, _SWAP_CHUNK_ELEMS // (a.size // a.shape[0]))
    scratch = np.empty((min(rows, a.shape[0]),) + a.shape[1:], dtype=a.dtype)
    for start in range(0, a.shape[0], rows):
        stop = min(start + rows, a.shape[0])
        block = scratch[: stop - start]
        np.copyto(block, a[start:stop])
        a[start:stop] = b[start:stop]
        b[start:stop] = block


def _apply_perm_tensor(view, axes, rows, phases):
    """Permute (and phase) target-basis slices along a cycle decomposition."""

    def basis_index(j):
        index = [slice(None)] * view.ndim
        for position, axis in enumerate(axes):
            index[axis] = (j >> position) & 1
        return tuple(index)

    dim = len(rows)
    destination = np.asarray(rows, dtype=np.int64)  # column c lands on rows[c]
    seen = np.zeros(dim, dtype=bool)
    for start in range(dim):
        if seen[start]:
            continue
        seen[start] = True
        if destination[start] == start:
            if phases[start] != 1:
                view[basis_index(start)] *= phases[start]
            continue
        # Walk the cycle start -> destination[start] -> ... back to start,
        # moving slices backwards so one temporary suffices.
        cycle = [start]
        current = int(destination[start])
        while current != start:
            seen[current] = True
            cycle.append(current)
            current = int(destination[current])
        if (
            len(cycle) == 2
            and phases[cycle[0]] == 1
            and phases[cycle[1]] == 1
        ):
            # Transposition with no phase — X/CX/SWAP/CCX all land here.
            _chunked_swap(view[basis_index(cycle[0])],
                          view[basis_index(cycle[1])])
            continue
        saved = view[basis_index(cycle[-1])].copy()
        for position in range(len(cycle) - 1, 0, -1):
            source, target = cycle[position - 1], cycle[position]
            view[basis_index(target)] = view[basis_index(source)]
            if phases[source] != 1:
                view[basis_index(target)] *= phases[source]
        view[basis_index(cycle[0])] = saved
        if phases[cycle[-1]] != 1:
            view[basis_index(cycle[0])] *= phases[cycle[-1]]


def _apply_dense_1q_tensor(view, axis, matrix):
    """In-place dense 1q update on an arbitrary (sub-)tensor view.

    Uses explicit ``__setitem__`` writes rather than in-place arithmetic on
    the sliced halves: when ctrl recursion has reduced ``view`` to 1-D,
    integer indexing yields scalar *copies* and in-place ops would be lost.
    """
    index0 = _axis_slice(view, axis, 0)
    index1 = _axis_slice(view, axis, 1)
    a0 = view[index0]
    a1 = view[index1]
    new0 = matrix[0, 0] * a0 + matrix[0, 1] * a1
    view[index1] = matrix[1, 0] * a0 + matrix[1, 1] * a1
    view[index0] = new0


def _kron_gemm_operator(matrix, stride):
    """Cached ``kron(matrix.T, I_stride)`` for the low-target GEMM path."""
    key = (stride, matrix.shape[0], matrix.tobytes())
    operator = _KRON_W_CACHE.get(key)
    if operator is None:
        operator = np.kron(matrix.T, np.eye(stride, dtype=complex))
        _KRON_W_CACHE[key] = operator
        while len(_KRON_W_CACHE) > _KRON_W_CACHE_SIZE:
            _KRON_W_CACHE.popitem(last=False)
    else:
        _KRON_W_CACHE.move_to_end(key)
    return operator


#: The latest retired state buffer; retiring another drops it.
_DENSE_SCRATCH: dict = {}


def _dense_out(flat):
    """Fresh output buffer, reusing the retired state buffer when it fits.

    At n=20 a state is 16 MiB; allocating one per dense op means an mmap and
    a page-fault sweep each gate.  Steady-state evolution instead ping-pongs
    between the live buffer and the one retired via :func:`_dense_retire`.
    """
    candidate = _DENSE_SCRATCH.pop("retired", None)
    if (
        candidate is not None
        and candidate.nbytes == flat.nbytes
        and candidate.size == flat.size
        and not np.may_share_memory(candidate, flat)
    ):
        return candidate
    # Pool empty, a buffer of another size, or the retired buffer is the
    # very one now arriving as input (a caller legitimately recycled it)
    # — matmul forbids aliased out, so fall back to a fresh allocation.
    return np.empty_like(flat)


def _dense_retire(flat, mutate):
    """Recycle ``flat`` after a dense op produced a new buffer.

    Only legal under ``mutate=True``: the caller has promised to use the
    returned array exclusively, so its old buffer is dead storage.
    """
    if mutate:
        _DENSE_SCRATCH["retired"] = flat


def _apply_dense_low(flat, matrix, target, batch, mutate, row_size):
    """Dense k-qubit gate on targets ``[target, target+1, ...]`` — low index.

    One BLAS GEMM against ``kron(U^T, I_R)``; only worthwhile while the
    inflation factor ``R = 2**target * batch`` stays small.  When the
    block spans a whole row, each row is one GEMM row, and BLAS takes a
    vector-matrix path for a lone one: a row stack then multiplies row by
    row, so every row keeps the arithmetic of its own run.
    """
    stride = (1 << target) * batch
    operator = _kron_gemm_operator(matrix, stride)
    out = _dense_out(flat)
    width = matrix.shape[0] * stride
    if width == row_size:
        for row, out_row in zip(flat.reshape(-1, 1, width),
                                out.reshape(-1, 1, width)):
            np.matmul(row, operator, out=out_row)
    else:
        np.matmul(flat.reshape(-1, width), operator,
                  out=out.reshape(-1, width))
    _dense_retire(flat, mutate)
    return out


def _apply_dense_high(flat, matrix, target, batch, mutate):
    """Dense k-qubit gate on targets ``[target, target+1, ...]`` — stacked
    ``(2**k, 2**k) @ (2**k, R)`` matmul over the leading axis."""
    stride = (1 << target) * batch
    dim = matrix.shape[0]
    out = _dense_out(flat)
    np.matmul(
        matrix,
        flat.reshape(-1, dim, stride),
        out=out.reshape(-1, dim, stride),
    )
    _dense_retire(flat, mutate)
    return out


def _apply_dense_contiguous(flat, matrix, target, batch, mutate, row_size):
    """Dense gate on a contiguous ascending target block starting at
    ``target``; ``row_size`` is one row's flat length (``2**n * batch``)."""
    if batch == 1 and target <= _KRON_GEMM_MAX_TARGET:
        return _apply_dense_low(flat, matrix, target, batch, mutate,
                                row_size)
    return _apply_dense_high(flat, matrix, target, batch, mutate)


def _permute_gate_qubits(matrix, positions):
    """Reorder a gate matrix so its qubit ``i`` moves to bit ``positions[i]``.

    Returns ``M'`` with ``M'[r', c'] = M[r, c]`` where bit ``i`` of ``r``
    equals bit ``positions[i]`` of ``r'``.
    """
    source = np.arange(matrix.shape[0])
    lookup = np.zeros_like(source)
    for i, position in enumerate(positions):
        lookup |= ((source >> position) & 1) << i
    return matrix[np.ix_(lookup, lookup)]


# ---------------------------------------------------------------------------
# The step dispatch and its public entry points
# ---------------------------------------------------------------------------


def _is_contiguous_block(targets) -> bool:
    """True when ``targets`` is ``[q, q+1, ..., q+k-1]`` up to reordering."""
    lowest = min(targets)
    return sorted(targets) == list(range(lowest, lowest + len(targets)))


def _reference(flat, step, num_qubits, batch, mutate):
    """``apply_matrix`` on the step's full matrix, one row at a time."""
    matrix = step.matrix()
    shape = (1 << num_qubits, batch) if batch > 1 else (1 << num_qubits,)
    rows = flat.reshape((-1,) + shape)
    if rows.shape[0] == 1:
        return apply_matrix(rows[0], matrix, step.targets,
                            num_qubits).reshape(-1)
    if not mutate:
        flat = flat.copy()
        rows = flat.reshape((-1,) + shape)
    for row in rows:
        row[...] = apply_matrix(row, matrix, step.targets, num_qubits)
    return flat


def _dispatch(flat, step, num_qubits, batch, mutate):
    kind = step.kind
    targets = step.targets
    if not ENABLED or kind not in ("diag", "perm", "ctrl", "dense"):
        return _reference(flat, step, num_qubits, batch, mutate)
    if kind == "dense":
        return _apply_dense_contiguous(flat, step.data, min(targets), batch,
                                       mutate, (1 << num_qubits) * batch)
    # Slice kernels mutate; honor the purity contract up front.
    if not mutate:
        flat = flat.copy()
    if kind == "diag":
        diagonal = step.data[1]
        if _diag_tile_selected((1 << num_qubits) * batch, targets, batch):
            _apply_diag_tiled(flat, diagonal, targets, num_qubits, batch)
            return flat
        if len(targets) == 1:
            # Single-stride layout beats multi-axis slicing for 1q diagonals.
            narrow = flat.reshape(-1, 2, (1 << targets[0]) * batch)
            if diagonal[0] != 1:
                narrow[:, 0, :] *= diagonal[0]
            if diagonal[1] != 1:
                narrow[:, 1, :] *= diagonal[1]
            return flat
    view, axes = _compact_view(flat, targets, batch)
    _dispatch_sliced(view, axes, step.data)
    return flat


def _dispatch_sliced(view, axes, descriptor):
    kind = descriptor[0]
    if kind == "diag":
        _apply_diag_tensor(view, axes, descriptor[1])
        return
    if kind == "perm":
        _apply_perm_tensor(view, axes, descriptor[1], descriptor[2])
        return
    if kind == "ctrl":
        # Restrict to the slice where the control (low) qubit is 1, then
        # recurse with the remaining targets.
        control_axis = axes[0]
        sub = view[_axis_slice(view, control_axis, 1)]
        sub_axes = [axis - 1 if axis > control_axis else axis for axis in axes[1:]]
        _dispatch_sliced(sub, sub_axes, descriptor[1])
        return
    # Dense base of a controlled gate (1q only, by construction).
    _apply_dense_1q_tensor(view, axes[0], descriptor[1])


def apply_step(state, step, num_qubits, batch=1):
    """Apply one lowered gate step to an owned state buffer.

    ``state`` is C-contiguous complex128: one row ``(2**n,)``, a row stack
    ``(R, 2**n)``, or ``batch`` columns ``(2**n, batch)``.  The caller owns
    it and uses only the returned array afterwards: kernels update it in
    place or hand back a different buffer of the same shape.  Under
    :class:`disabled` every step runs ``apply_matrix``.
    """
    return _dispatch(state.reshape(-1), step, num_qubits, batch,
                     True).reshape(state.shape)


def apply_steps(state, steps, num_qubits, batch=1):
    """Apply ``steps`` in order; same contract as :func:`apply_step`."""
    flat = state.reshape(-1)
    for step in steps:
        flat = _dispatch(flat, step, num_qubits, batch, True)
    return flat.reshape(state.shape)


def _apply_once(state, step, num_qubits, mutate):
    """One step on a caller's ``(2**n,)`` or ``(2**n, B)`` array."""
    state = np.asarray(state)
    original_shape = state.shape
    batch = 1
    for extent in state.shape[1:]:
        batch *= extent
    if state.dtype != np.complex128 or not state.flags.c_contiguous:
        state = np.ascontiguousarray(state, dtype=complex)
        mutate = True  # we own the converted copy
    result = _dispatch(state.reshape(-1), step, num_qubits, batch, mutate)
    return result.reshape(original_shape)


def apply_unitary(state, matrix, targets, num_qubits, *, mutate=False):
    """Apply ``matrix`` to ``targets`` of ``state`` via the fastest kernel.

    Drop-in replacement for :func:`apply_matrix` (same layout conventions,
    same result to 1e-12).  With ``mutate=True`` the caller guarantees it
    owns ``state`` and only uses the *returned* array afterwards: kernels
    are then free to update in place or hand back a different buffer.  With
    the default ``mutate=False`` the input is never modified.

    Args:
        state: ``(2**num_qubits,)`` amplitudes or ``(2**num_qubits, B)``
            batch of columns.
        matrix: the ``2**k x 2**k`` operator (``k = len(targets)``).
        targets: little-endian target qubits; ``targets[0]`` is the least
            significant bit of the matrix's index space.
        num_qubits: total qubit count of ``state``.
        mutate: allow in-place updates of ``state``.

    Returns:
        The evolved state, same shape as the input.
    """
    if not ENABLED:
        return apply_matrix(state, matrix, targets, num_qubits)
    step = matrix_step(matrix, targets)
    if step.kind == "matrix":
        return apply_matrix(state, step.source, targets, num_qubits)
    return _apply_once(state, step, num_qubits, mutate)


def apply_diagonal(state, diagonal, targets, num_qubits, *, mutate=False):
    """Apply a diagonal operator given as its diagonal *vector*.

    The entry point for fused :class:`DiagonalGate`\\ s: no dense matrix is
    ever built and, unlike :func:`apply_unitary`, there is no
    ``_MAX_ANALYZED_QUBITS`` cap — a fused 8-qubit diagonal is still one
    tiled elementwise multiply.  ``diagonal[j]``'s bit ``p`` corresponds to
    ``targets[p]`` (same little-endian convention as the matrix kernels).
    """
    diagonal = np.ascontiguousarray(diagonal, dtype=complex)
    if not ENABLED:
        return apply_matrix(state, np.diag(diagonal), targets, num_qubits)
    step = Step("diag", ("diag", diagonal), list(targets))
    return _apply_once(state, step, num_qubits, mutate)


def apply_gate(state, gate, targets, num_qubits, *, mutate=False):
    """Apply a :class:`~repro.circuit.gate.Gate` via its (cached) matrix.

    Gates that carry their diagonal vector directly (``DiagonalGate``)
    skip matrix construction entirely (see :func:`gate_step`).
    """
    return _apply_once(state, gate_step(gate, targets), num_qubits, mutate)


def clear_caches():
    """Drop the analysis, GEMM-operator, and scratch caches (tests/benchmarks)."""
    _ANALYSIS_CACHE.clear()
    _KRON_W_CACHE.clear()
    _DENSE_SCRATCH.clear()
