"""Vectorised state-vector gate kernels.

Two interchangeable engines:

* :func:`apply_gate` / :func:`apply_gate_batched` — production path: a
  single axis permutation exposes the gate's ``2^k`` subspace, one GEMM
  applies the unitary to every pair/quad simultaneously, and diagonal gates
  take a copy-free broadcast-multiply fast path.
* :func:`apply_gate_reference` — literal strided implementation matching
  the paper's Fig. 1 description; used for cross-validation and as the
  access-pattern source for the cache model.

A third, gather-free path backs the execution backends'
small-fused-group fast lane: :func:`apply_matrix_strided` applies a
unitary directly to the flat state through bit-strided views — no
``(2^(n-w), 2^w)`` gather matrix, no index table — and
:func:`split_controls` peels control qubits off a matrix so controlled
and diagonal groups touch only the rows they change.  Eligibility is
governed by ``REPRO_KERNEL_STRIDED_MAX`` (:func:`strided_max_qubits`).

All kernels operate **in place** and return their input array.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate
from ..config import ENV, env
from .layout import axis_of_qubit, gather_index_table

__all__ = [
    "apply_matrix",
    "apply_matrix_batched",
    "apply_matrix_strided",
    "apply_gate",
    "apply_gate_batched",
    "apply_gate_reference",
    "apply_circuit",
    "split_controls",
    "strided_max_qubits",
    "flops_for_gate",
    "bytes_touched_for_gate",
    "bytes_touched_strided",
    "bytes_touched_gather_part",
    "DEFAULT_STRIDED_MAX",
]

#: Default arity ceiling (in *target* qubits, after control extraction)
#: for the gather-free strided path; override via
#: ``REPRO_KERNEL_STRIDED_MAX``.
DEFAULT_STRIDED_MAX = ENV["REPRO_KERNEL_STRIDED_MAX"].default


def _gate_axes(n_axes_total: int, n_qubits: int, qubits: Sequence[int], lead: int) -> list:
    """View axes of the gate operands, most-significant operand first.

    ``lead`` counts extra leading (batch) axes before the qubit axes.
    """
    return [lead + axis_of_qubit(n_qubits, q) for q in reversed(list(qubits))]


def _apply_dense(view: np.ndarray, matrix: np.ndarray, axes: Sequence[int]) -> None:
    """Apply ``matrix`` over the listed view axes (in place)."""
    k = len(axes)
    moved = np.moveaxis(view, axes, range(k))
    shape = moved.shape
    # ``reshape`` copies (axes are permuted); the GEMM result is written back
    # through the moveaxis view, which aliases the original array.
    res = matrix @ moved.reshape(1 << k, -1)
    moved[...] = res.reshape(shape)


def _diagonal_factor(diag: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """``diag`` shaped to broadcast over an ``ndim``-axis view whose gate
    operands sit on ``axes`` (most-significant operand first)."""
    k = len(axes)
    fac = diag.reshape((2,) * k)
    order = np.argsort(axes)  # fac axes sorted by view-axis index
    fac = fac.transpose(tuple(order))
    shape = [1] * ndim
    for ax in axes:
        shape[ax] = 2
    return fac.reshape(shape)


def _apply_diagonal(view: np.ndarray, diag: np.ndarray, axes: Sequence[int]) -> None:
    """Copy-free diagonal-gate path: broadcast multiply over gate axes."""
    view *= _diagonal_factor(diag, axes, view.ndim)


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    *,
    diagonal: bool = False,
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to ``qubits`` of a flat state (in place).

    ``qubits`` are in operand order (first operand = least significant bit
    of the matrix's local index).

    >>> import numpy as np
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    >>> apply_matrix(state, X, [1], 2)       # flip qubit 1: |00> -> |10>
    array([0.+0.j, 0.+0.j, 1.+0.j, 0.+0.j])
    """
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} qubits"
        )
    if state.size != 1 << num_qubits:
        raise ValueError(
            f"state has {state.size} amplitudes but num_qubits="
            f"{num_qubits} requires {1 << num_qubits}; for batched "
            f"(B, 2^k) inputs use apply_matrix_batched"
        )
    view = state.reshape((2,) * num_qubits)
    axes = _gate_axes(num_qubits, num_qubits, qubits, lead=0)
    if diagonal:
        _apply_diagonal(view, np.ascontiguousarray(np.diag(matrix)), axes)
    else:
        _apply_dense(view, matrix, axes)
    return state


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply a :class:`Gate` to a flat ``(2^n,)`` state vector (in place).

    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> _ = apply_gate(state, make_gate("x", [0]), 2)     # |00> -> |01>
    >>> _ = apply_gate(state, make_gate("cx", [0, 1]), 2) # -> |11>
    >>> state
    array([0.+0.j, 0.+0.j, 0.+0.j, 1.+0.j])
    """
    return apply_matrix(
        state, gate.matrix(), gate.qubits, num_qubits, diagonal=gate.is_diagonal
    )


def apply_matrix_batched(
    states: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_local: int,
    *,
    diagonal: bool = False,
) -> np.ndarray:
    """Apply a unitary to a batch of state vectors, shape ``(B, 2^num_local)``.

    ``qubits`` are *local* indices (< ``num_local``) in operand order.
    Used by the hierarchical executor (rows = inner state vectors) and the
    distributed engines (rows = per-rank shards).

    >>> import numpy as np
    >>> rows = np.eye(2, dtype=np.complex128)       # two 1-qubit states
    >>> X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    >>> apply_matrix_batched(rows, X, [0], 1)
    array([[0.+0.j, 1.+0.j],
           [1.+0.j, 0.+0.j]])
    """
    if states.ndim != 2 or states.shape[1] != 1 << num_local:
        raise ValueError(f"states must be (B, {1 << num_local})")
    batch = states.shape[0]
    view = states.reshape((batch,) + (2,) * num_local)
    axes = _gate_axes(num_local + 1, num_local, qubits, lead=1)
    if diagonal:
        _apply_diagonal(view, np.ascontiguousarray(np.diag(matrix)), axes)
    else:
        _apply_dense(view, matrix, axes)
    return states


def apply_gate_batched(
    states: np.ndarray, gate: Gate, num_local: int
) -> np.ndarray:
    """:func:`apply_matrix_batched` for a :class:`Gate` instance.

    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> rows = np.zeros((2, 4), dtype=np.complex128); rows[:, 0] = 1.0
    >>> _ = apply_gate_batched(rows, make_gate("x", [1]), 2)
    >>> [int(r.argmax()) for r in rows]     # both rows now |10>
    [2, 2]
    """
    return apply_matrix_batched(
        states,
        gate.matrix(),
        gate.qubits,
        num_local,
        diagonal=gate.is_diagonal,
    )


def apply_gate_reference(
    state: np.ndarray, gate: Gate, num_qubits: int
) -> np.ndarray:
    """Literal Fig.-1-style implementation via explicit gather indices.

    Builds the ``(2^(n-k), 2^k)`` index table of strided amplitude groups,
    gathers each small vector, multiplies by the gate matrix and scatters
    back.  O(2^n) extra memory; for validation and cache tracing only.

    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> ref = apply_gate_reference(state.copy(), make_gate("h", [0]), 2)
    >>> fast = apply_gate(state.copy(), make_gate("h", [0]), 2)
    >>> bool(np.allclose(ref, fast))
    True
    """
    table = gather_index_table(num_qubits, gate.qubits)
    small = state[table]  # (groups, 2^k)
    small = small @ gate.matrix().T
    state[table] = small
    return state


def apply_circuit(state: np.ndarray, gates: Sequence[Gate], num_qubits: int) -> np.ndarray:
    """Apply a gate sequence in order (in place).

    >>> import numpy as np
    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)           # Bell pair
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> out = apply_circuit(state, qc.gates, 2)
    >>> [round(float(abs(a)) ** 2, 3) for a in out]
    [0.5, 0.0, 0.0, 0.5]
    """
    for g in gates:
        apply_gate(state, g, num_qubits)
    return state


# ---------------------------------------------------------------------------
# Gather-free strided path (small fused groups skip the gather matrix)
# ---------------------------------------------------------------------------


def strided_max_qubits() -> int:
    """Resolve the strided-path arity ceiling from the environment.

    Fused groups with at most this many *target* qubits (controls are
    free — they only shrink the touched region) run gather-free via
    :func:`apply_matrix_strided`; larger groups take the gather-matrix
    path.  Reads ``REPRO_KERNEL_STRIDED_MAX`` (default
    :data:`DEFAULT_STRIDED_MAX`); a negative value disables the strided
    path entirely.

    >>> strided_max_qubits()            # unset in the test run
    2
    """
    return env("REPRO_KERNEL_STRIDED_MAX")


def split_controls(
    matrix: np.ndarray, qubits: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], np.ndarray]:
    """Peel control qubits off a unitary: ``(controls, targets, sub)``.

    Operand ``c`` is a *control* when the matrix is block-diagonal in
    bit ``c`` and the ``bit=0`` block is exactly the identity — then the
    op only changes amplitudes whose control bits are all 1, and ``sub``
    is the reduced matrix over the remaining target operands (operand
    order preserved).  Detection is exact (``==`` on entries), so
    applying ``sub`` to the selected slice reproduces the full matrix's
    result to the last bit; matrices with no control structure come back
    unchanged as ``((), qubits, matrix)``.

    >>> from repro.circuits.gates import make_gate
    >>> cx = make_gate("cx", [0, 1])            # operand 0 is the control
    >>> controls, targets, sub = split_controls(cx.matrix(), cx.qubits)
    >>> controls, targets
    ((0,), (1,))
    >>> sub.real.astype(int).tolist()           # the bare X on qubit 1
    [[0, 1], [1, 0]]
    >>> ccx = make_gate("ccx", [2, 0, 1])
    >>> split_controls(ccx.matrix(), ccx.qubits)[:2]
    ((2, 0), (1,))
    """
    qubits = tuple(qubits)
    k = len(qubits)
    dim = 1 << k
    if matrix.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} qubits"
        )
    idx = np.arange(dim)
    control_pos = []
    for c in range(k):
        bits = (idx >> c) & 1
        if matrix[bits[:, None] != bits[None, :]].any():
            continue  # mixes the bit=0 / bit=1 halves
        zero_half = idx[bits == 0]
        block = matrix[np.ix_(zero_half, zero_half)]
        if not np.array_equal(block, np.eye(dim >> 1)):
            continue  # acts on the bit=0 half
        control_pos.append(c)
    if not control_pos:
        return (), qubits, matrix
    keep = idx
    for c in control_pos:
        keep = keep[((keep >> c) & 1) == 1]
    sub = np.ascontiguousarray(matrix[np.ix_(keep, keep)])
    control_set = set(control_pos)
    controls = tuple(qubits[c] for c in control_pos)
    targets = tuple(
        q for i, q in enumerate(qubits) if i not in control_set
    )
    return controls, targets, sub


def _apply_strided(
    view: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_local: int,
    lead: int,
    diagonal: bool,
) -> None:
    """Strided core: apply over a ``(…batch…,) + (2,)*num_local`` view.

    Controls are peeled off and index the view down to the changed
    slice; diagonal factors multiply only their non-identity entries.
    ``lead`` counts leading batch axes (0 for a flat state, 1 for the
    threaded backend's row blocks).
    """
    controls, targets, sub = split_controls(matrix, qubits)
    if controls and not targets and not diagonal:
        # Fully-controlled dense op: the active block is a 1x1 phase.
        # Demote one control back to a target so the work stays a GEMM,
        # keeping bitwise parity with the gather path's GEMM.
        targets = (controls[-1],)
        controls = controls[:-1]
        sub = np.array(
            [[1.0, 0.0], [0.0, complex(sub[0, 0])]], dtype=matrix.dtype
        )
    caxes: list = []
    if controls:
        index = [slice(None)] * view.ndim
        for q in controls:
            a = lead + axis_of_qubit(num_local, q)
            index[a] = 1
            caxes.append(a)
        view = view[tuple(index)]  # basic indexing: still a view
        caxes.sort()

    def _axis(q: int) -> int:
        a = lead + axis_of_qubit(num_local, q)
        return a - sum(1 for ca in caxes if ca < a)

    axes = [_axis(q) for q in reversed(targets)]
    if not targets:
        fac = complex(sub[0, 0])
        if fac != 1:
            view *= fac
    elif diagonal:
        d = np.ascontiguousarray(np.diag(sub))
        s = len(targets)
        for j in range(1 << s):
            if d[j] == 1:
                continue  # identity entries leave their rows untouched
            index: list = [slice(None)] * view.ndim
            for t, ax in enumerate(axes):  # axes[0] = most significant
                index[ax] = (j >> (s - 1 - t)) & 1
            view[tuple(index)] *= d[j]
    else:
        _apply_dense(view, sub, axes)


def apply_matrix_strided(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    *,
    diagonal: bool = False,
) -> np.ndarray:
    """Gather-free in-place application through bit-strided views.

    Equivalent to :func:`apply_matrix` — and bit-identical to applying
    the same op through the hierarchical gather path — but never builds
    an index table or a gathered copy of the state: the flat array is
    reshaped to ``(2,)*n`` (a view) and the op touches only the slices
    it changes.  Control qubits (:func:`split_controls`) restrict the
    sweep to the rows where every control bit is 1, and identity entries
    of diagonal ops are skipped outright, so a ``ccx`` on a 20-qubit
    state writes ``2^18`` amplitudes instead of gathering all ``2^20``.

    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> state = np.zeros(8, dtype=np.complex128); state[3] = 1.0  # |011>
    >>> ccx = make_gate("ccx", [0, 1, 2])       # controls 0,1 → target 2
    >>> _ = apply_matrix_strided(state, ccx.matrix(), ccx.qubits, 3)
    >>> int(state.argmax())                     # |011> -> |111>
    7
    """
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} qubits"
        )
    if state.size != 1 << num_qubits:
        raise ValueError(
            f"state has {state.size} amplitudes but num_qubits="
            f"{num_qubits} requires {1 << num_qubits}"
        )
    view = state.reshape((2,) * num_qubits)
    _apply_strided(view, matrix, qubits, num_qubits, 0, diagonal)
    return state


# ---------------------------------------------------------------------------
# Cost accounting (Sec. III-A roofline quantities)
# ---------------------------------------------------------------------------


def flops_for_gate(gate_qubits: int, num_qubits: int, diagonal: bool = False) -> int:
    """Floating-point operations for one gate on a ``num_qubits`` state.

    The paper's Sec. III-A count: a 1-qubit gate is ``2^(n-1)`` small
    matvecs of 28 flop each.  Generalised: each of the ``2^(n-k)`` groups
    costs ``2^k`` complex MACs per output row (6 flop regular + 2 for the
    accumulate), ``2^k`` rows.  Diagonal gates cost one complex multiply
    (6 flop) per amplitude.

    >>> flops_for_gate(1, 10)              # 2^9 groups x 28 flop
    14336
    >>> flops_for_gate(1, 10, diagonal=True)
    6144
    """
    if diagonal:
        return 6 * (1 << num_qubits)
    k = gate_qubits
    groups = 1 << (num_qubits - k)
    per_group = (1 << k) * ((1 << k) * 6 + ((1 << k) - 1) * 2)
    return groups * per_group


def bytes_touched_for_gate(num_qubits: int, diagonal: bool = False) -> int:
    """Bytes moved through the memory system by one gate sweep.

    Every amplitude is read and written once (16 B complex128 each way);
    diagonal sweeps are identical in traffic, the savings are flops-side.

    >>> bytes_touched_for_gate(10)
    32768
    """
    del diagonal  # same traffic either way; parameter kept for clarity
    return 2 * 16 * (1 << num_qubits)


def bytes_touched_strided(num_qubits: int, num_controls: int = 0) -> int:
    """Traffic model for one gather-free strided sweep.

    The strided path reads and writes only the slice where every
    control bit is 1 — ``2^(n-c)`` complex128 amplitudes each way — and
    never materialises an index table or a gathered copy.

    >>> bytes_touched_strided(10)                 # == a plain gate sweep
    32768
    >>> bytes_touched_strided(10, num_controls=1) # cx touches half
    16384
    """
    return 2 * 16 * (1 << (num_qubits - num_controls))


def bytes_touched_gather_part(num_qubits: int, num_ops: int) -> int:
    """Traffic model for one gather-matrix part sweep of ``num_ops`` ops.

    The gather path builds the int64 index table (8 B per amplitude),
    gathers the state into the ``(2^(n-w), 2^w)`` matrix (read + write),
    sweeps every op over it, and scatters back — so even a single-op
    part pays ``~3x`` the traffic of its strided equivalent
    (:func:`bytes_touched_strided`).

    >>> bytes_touched_gather_part(10, 1)
    106496
    >>> bytes_touched_gather_part(10, 1) / bytes_touched_strided(10)
    3.25
    """
    amps = 1 << num_qubits
    table = 8 * amps
    gather = 2 * 16 * amps
    ops = num_ops * 2 * 16 * amps
    scatter = 2 * 16 * amps
    return table + gather + ops + scatter
