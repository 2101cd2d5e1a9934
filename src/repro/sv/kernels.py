"""Vectorised state-vector gate kernels, the execution backends' core
(:mod:`repro.sv.backend`): a gate reaches amplitudes only through a
backend's ``apply_gate_flat`` / ``apply_matrix_rows`` or
``run_part_group``.

* :func:`apply_matrix_batched` — the row kernel: one axis permutation
  exposes an op's ``2^k`` subspace in every row of a ``(B, 2^w)``
  matrix and one GEMM applies the unitary to all of it; diagonal ops
  take a copy-free in-place multiply (over contiguous runs of
  ``2^DIAGONAL_RUN_BITS`` amplitudes once the rows hold a block).
* :func:`apply_matrix_strided` — the gather-free lane of small fused
  groups (at most :data:`DEFAULT_STRIDED_MAX` targets): bit-strided
  views of the flat state, no gather matrix or index table, with
  :func:`split_controls` peeling controls off so an op touches only
  the rows it changes.
* :func:`apply_gate_reference` — the literal gather implementation of
  the paper's Fig. 1, kept as the oracle the kernels are tested against.

All kernels operate **in place** and return their input array.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate
from .layout import axis_of_qubit, gather_index_table

__all__ = [
    "BLOCK_ELEMENTS",
    "check_operands",
    "apply_matrix_batched",
    "apply_matrix_strided",
    "apply_gate_reference",
    "split_controls",
    "strided_max_qubits",
    "flops_for_gate",
    "bytes_touched_for_gate",
    "bytes_touched_strided",
    "bytes_touched_gather_part",
    "DEFAULT_STRIDED_MAX",
]

#: Arity ceiling (in *target* qubits, after control extraction) for the
#: gather-free strided path; a backend's ``strided_max=`` overrides it.
DEFAULT_STRIDED_MAX = 2

#: Amplitudes per block (512 KiB of complex128): a block, the transposed
#: copy and GEMM result a dense op makes of it, and its int64 gather
#: rows (1.75 MiB together) fit a 2 MiB L2.  The block rule
#: (``backend._row_blocks``) sizes every block from it, and a diagonal
#: op streams once its rows hold one.
BLOCK_ELEMENTS = 1 << 15

#: Low bits a streamed diagonal op keeps as one contiguous run: its
#: factor repeats every ``2^DIAGONAL_RUN_BITS`` amplitudes (16 KiB), so
#: numpy's inner loop is that long instead of 2 when an operand is a low
#: qubit.
DIAGONAL_RUN_BITS = 10

#: No GEMM is split to fewer columns than this: BLAS computes a tile's
#: last 1-3 columns in its edge kernel, whose last bits differ from the
#: full-width kernel's, so a power-of-two column count of at least 4
#: keeps a split GEMM bit-identical to the whole one.
MIN_GEMM_COLUMNS = 4


def check_operands(qubits: Sequence[int], width: int) -> None:
    """Refuse duplicate or out-of-range operands of a ``width``-qubit
    state with a :class:`ValueError` that names them.

    Every kernel entry point calls this before touching its state:
    numpy would otherwise report a duplicate as a "repeated axis", and
    a negative operand would silently index from the top.

    >>> check_operands((0, 2), 3)
    >>> check_operands((1, 1), 3)
    Traceback (most recent call last):
    ...
    ValueError: duplicate operands in (1, 1)
    >>> check_operands((0, 3), 3)
    Traceback (most recent call last):
    ...
    ValueError: operands (3,) of (0, 3) are outside 0..2
    """
    bad = tuple(q for q in qubits if not 0 <= q < width)
    if bad:
        raise ValueError(
            f"operands {bad} of {tuple(qubits)} are outside 0..{width - 1}"
        )
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate operands in {tuple(qubits)}")


def _gate_axes(n_qubits: int, qubits: Sequence[int], lead: int) -> list:
    """View axes of the gate operands, most-significant operand first.

    ``lead`` counts extra leading (batch) axes before the qubit axes.
    """
    return [lead + axis_of_qubit(n_qubits, q) for q in reversed(list(qubits))]


def _gemm_in_place(moved: np.ndarray, matrix: np.ndarray, k: int) -> None:
    """``matrix`` over the leading ``k`` axes of ``moved`` (in place).

    ``reshape`` copies (the axes are permuted); the GEMM result is
    written back through ``moved``, which aliases the original array."""
    res = matrix @ moved.reshape(1 << k, -1)
    moved[...] = res.reshape(moved.shape)


def _apply_dense(view: np.ndarray, matrix: np.ndarray, axes: Sequence[int]) -> None:
    """Apply ``matrix`` over the listed view axes (in place)."""
    k = len(axes)
    _gemm_in_place(np.moveaxis(view, axes, range(k)), matrix, k)


def _apply_dense_split(
    rows: np.ndarray,
    matrix: np.ndarray,
    positions: Sequence[int],
    width: int,
    split: int,
    lo: int,
    hi: int,
) -> None:
    """A dense op over virtual rows ``[lo, hi)`` of ``rows`` (in place).

    Each ``(B, 2^width)`` row is presented as ``2^split`` virtual rows by
    fixing its ``split`` highest non-operand bits, and each virtual row
    is its own transposed copy and GEMM, so both stay within one
    virtual row's amplitudes.  Every GEMM column is a column of the
    one-pass GEMM, computed alone, so the bits match it as long as a
    virtual row keeps :data:`MIN_GEMM_COLUMNS` columns — which the block
    rule guarantees when it chooses ``split``.

    >>> rows = np.arange(8, dtype=np.complex128).reshape(1, 8)
    >>> X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    >>> _apply_dense_split(rows, X, [0], 3, 1, 0, 2)  # bit 2 fixed
    >>> rows.real.tolist()
    [[1.0, 0.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0]]
    """
    view = rows.reshape((rows.shape[0],) + (2,) * width)
    axes = _gate_axes(width, positions, lead=1)
    free = [a for a in range(1, width + 1) if a not in axes]
    moved = view.transpose([0] + free[:split] + axes + free[split:])
    for v in range(lo, hi):
        r, j = divmod(v, 1 << split)
        fixed = tuple((j >> b) & 1 for b in range(split - 1, -1, -1))
        _gemm_in_place(moved[(r,) + fixed], matrix, len(axes))


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


def _apply_diagonal(
    view: np.ndarray,
    diag: np.ndarray,
    axes: Sequence[int],
    batch_axis: int = 0,
) -> None:
    """Copy-free diagonal-gate path: one in-place multiply by ``diag``
    broadcast over the gate axes of a contiguous ``(…, 2, …, 2)`` view.

    numpy merges adjacent axes over which the factor is constant, so the
    multiply's inner loop runs over the non-operand bits below the
    lowest operand — 2 amplitudes long when that is qubit 0.  With an
    operand among the last :data:`DIAGONAL_RUN_BITS` axes and at least
    :data:`BLOCK_ELEMENTS` amplitudes, the factor is first written out
    over those axes (at most ``2^(k + DIAGONAL_RUN_BITS)`` entries) and
    they are merged, so the inner loop is that many contiguous
    amplitudes.  Either way each amplitude is multiplied by the same
    entry of ``diag``, so the bits are the same.  Only axes after
    ``batch_axis`` merge: a gathered block in a dense op's order
    (:func:`_part_program`) has qubit axes before its row axis.

    >>> view = np.ones((2,) * 4, dtype=np.complex128)   # qubit q: axis 3 - q
    >>> _apply_diagonal(view, np.array([1, 2, 3, 4j]), [0, 3])  # on (0, 3)
    >>> view.reshape(-1).real.astype(int).tolist()[:10]  # 1, 2 by qubit 0
    [1, 2, 1, 2, 1, 2, 1, 2, 3, 0]
    """
    fac = _diagonal_factor(diag, axes, view.ndim)
    low = min(DIAGONAL_RUN_BITS, view.ndim - 1 - batch_axis)
    if axes and max(axes) >= view.ndim - low and view.size >= BLOCK_ELEMENTS:
        lead = fac.shape[: view.ndim - low]
        # Merging the broadcast axes copies: the factor's run.
        fac = np.broadcast_to(fac, lead + (2,) * low).reshape(
            lead + (1 << low,)
        )
        view = view.reshape(view.shape[: view.ndim - low] + (1 << low,))
    view *= fac


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
    check_operands(qubits, num_local)
    batch = states.shape[0]
    view = states.reshape((batch,) + (2,) * num_local)
    axes = _gate_axes(num_local, qubits, lead=1)
    if diagonal:
        _apply_diagonal(view, np.ascontiguousarray(np.diag(matrix)), axes)
    else:
        _apply_dense(view, matrix, axes)
    return states


def _order_perm(
    sizes: Sequence[int], src: Tuple[int, ...], dst: Tuple[int, ...]
) -> Optional[Tuple[int, ...]]:
    """The transposition taking a block whose axes (labels, axis ``a``
    being ``sizes[a]`` long) are in order ``src`` into order ``dst``, or
    ``None`` when the bytes are already in order: the orders agree but
    for where their one-long axes sit.

    >>> _order_perm((4, 2, 2), (0, 1, 2), (2, 0, 1))
    (2, 0, 1)
    >>> _order_perm((1, 2, 2), (0, 1, 2), (1, 0, 2)) is None
    True
    """

    def moved(order):  # a one-long axis may sit anywhere
        return [a for a in order if sizes[a] > 1]

    if moved(src) == moved(dst):
        return None
    return tuple(src.index(a) for a in dst)


#: The axis label of a row block's gather row in a part's program
#: (:func:`_part_program`); every other axis is a qubit.
ROW = -1


def axis_sizes(order: Sequence[int], rows: int) -> dict:
    """The length of each axis of ``order``: ``rows`` for :data:`ROW`,
    2 for a qubit.

    >>> axis_sizes((ROW, 3, 1), 4)
    {-1: 4, 3: 2, 1: 2}
    """
    return {a: rows if a == ROW else 2 for a in order}


def _part_program(
    lane: str,
    qubits: Tuple[int, ...],
    ops: Sequence[Tuple[Tuple[int, ...], bool]],
    start: Optional[Tuple[int, ...]] = None,
    rows: int = 1,
    jobs: int = 1,
) -> Tuple[tuple, Optional[Tuple[int, ...]]]:
    """The steps one lane runs a part's ``ops`` in: ``(steps, end)``
    (:func:`repro.sv.backend.run_part_group` holds the step table).

    ``qubits`` is the part's working set and each op is ``(axes,
    diagonal)``, its qubits most significant first.  ``"strided"`` and
    ``"in_place"`` are one step over the flat state.  The other lanes
    sweep a block of labelled axes (:data:`ROW`, ``rows`` long, and
    qubits) that arrives in order ``start`` and is left in order
    ``end``: a ``"gather"`` row block in natural order ``(ROW,) +
    qubits[::-1]``, and whole states, ``"load"``-ed in natural order or
    ``"resident"`` in any.  A dense op runs its GEMM on the block in
    order: its operands, then the natural order's other axes (the labels
    outside the part, most significant first, then the part's qubits) --
    the order a copy-GEMM-write-back sweep moves them to, so the GEMM
    has its shape, columns and bits -- and the block stays in that
    order.  Steps are tuples, their kind first:

    * ``("dense", i, shape, perm, target, gemm)``: op ``i``; ``perm``
      transposes the block from ``shape`` into ``target``, or is ``None``
      when the bytes are in order (:func:`_order_perm`); ``gemm`` is the
      GEMM operand shape.  For ``jobs > 1`` all four are lifted over a
      leading job axis;
    * ``("diag", i, shape, where, row)``: op ``i``'s operand positions
      and the first natural axis's, per job;
    * ``("flush", shape, perm, home)``: each job's block from ``shape``
      to natural order (``home`` its shape), ending a whole state's
      program; a row block has one where ``perm`` is not ``None``;
    * ``("strided", local)`` and ``("in_place", local)``: the flat
      state as rows of ``2^local`` amplitudes.

    >>> ops = [((0,), False), ((0,), False), ((2,), True)]
    >>> steps, end = _part_program("gather", (0, 1, 2), ops, rows=4)
    >>> [s[0] for s in steps]
    ['gather', 'dense', 'dense', 'diag', 'flush', 'scatter']
    >>> steps[1]       # qubit 0 leads: one copy, a 2 x 16 GEMM
    ('dense', 0, (4, 2, 2, 2), (3, 0, 1, 2), (2, 4, 2, 2), (2, 16))
    >>> steps[2][3] is None                # already in order: no copy
    True
    >>> steps[3], end  # qubit 2 sits at position 2, the row at 1
    (('diag', 2, (2, 4, 2, 2), (2,), 1), (0, -1, 2, 1))
    >>> _part_program("resident", (0, 1, 2), ops[2:], start=(2, 1, 0))[0]
    (('diag', 0, (2, 2, 2), (0,), 0), ('flush', (2, 2, 2), None, (2, 2, 2)))
    >>> _part_program("strided", (0, 1, 2), ops)[0]
    (('strided', 3),)
    """
    if lane == "strided":
        local = 1 + max((q for axes, _ in ops for q in axes), default=0)
        return (("strided", local),) if ops else (), start
    if lane == "in_place":
        return (("in_place", 1 + max(qubits)),), start
    if start is None:
        start = (ROW,) + qubits[::-1]
    sizes = axis_sizes(start, rows)
    outer = sorted((a for a in start if a not in qubits), reverse=True)
    natural = tuple(outer) + qubits[::-1]
    home = start if lane == "gather" else tuple(sorted(start, reverse=True))
    total = math.prod(sizes.values())
    lead = (jobs,) if jobs > 1 else ()
    steps: list = [(lane,)] if lane in ("gather", "load") else []
    order = start
    for i, (axes, diagonal) in enumerate(ops):
        shape = tuple(sizes[a] for a in order)
        if diagonal:
            where = tuple(order.index(a) for a in axes)
            steps.append(("diag", i, shape, where, order.index(natural[0])))
            continue
        target = axes + tuple(a for a in natural if a not in axes)
        perm = _order_perm(sizes, order, target)
        if perm is not None and lead:
            perm = (0, *[a + 1 for a in perm])
        steps.append((
            "dense", i, lead + shape, perm,
            lead + tuple(sizes[a] for a in target),
            lead + (1 << len(axes), total >> len(axes)),
        ))
        order = target
    perm = _order_perm(sizes, order, home)
    if perm is not None or lane != "gather":
        shape = tuple(sizes[a] for a in order)
        steps.append(("flush", shape, perm, tuple(sizes[a] for a in home)))
    if lane == "gather":
        steps.append(("scatter",))
    return tuple(steps), order


def apply_gate_reference(
    state: np.ndarray, gate: Gate, num_qubits: int
) -> np.ndarray:
    """Literal Fig.-1-style implementation via explicit gather indices.

    Builds the ``(2^(n-k), 2^k)`` index table of strided amplitude groups,
    gathers each small vector, multiplies by the gate matrix and scatters
    back.  O(2^n) extra memory; for validation only.

    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> out = apply_gate_reference(state, make_gate("h", [0]), 2)
    >>> [round(float(abs(a)) ** 2, 3) for a in out]  # (|00> + |01>) / sqrt 2
    [0.5, 0.5, 0.0, 0.0]
    """
    table = gather_index_table(num_qubits, gate.qubits)
    small = state[table]  # (groups, 2^k)
    small = small @ gate.matrix().T
    state[table] = small
    return state


# ---------------------------------------------------------------------------
# Gather-free strided path (small fused groups skip the gather matrix)
# ---------------------------------------------------------------------------


def strided_max_qubits() -> int:
    """The strided-path arity ceiling, :data:`DEFAULT_STRIDED_MAX`.

    Fused groups with at most this many *target* qubits (controls are
    free — they only shrink the touched region) run gather-free via
    :func:`apply_matrix_strided`; larger groups take the gather-matrix
    path.  The perf harness imports this name; delete it once the
    harness stops.

    >>> strided_max_qubits()
    2
    """
    return DEFAULT_STRIDED_MAX


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
    control_pos = []
    for c in range(k):
        # Row and column index as (high bits, bit c, low bits).
        high, low = dim >> (c + 1), 1 << c
        m = matrix.reshape(high, 2, low, high, 2, low)
        if m[:, 0, :, :, 1].any() or m[:, 1, :, :, 0].any():
            continue  # mixes the bit=0 / bit=1 halves
        block = m[:, 0, :, :, 0].reshape(dim >> 1, dim >> 1)
        if not np.array_equal(block, np.eye(dim >> 1)):
            continue  # acts on the bit=0 half
        control_pos.append(c)
    if not control_pos:
        return (), qubits, matrix
    keep = np.arange(dim)
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
    peeled: Optional[tuple] = None,
) -> None:
    """Strided core: apply over a ``(…batch…,) + (2,)*num_local`` view.

    Controls are peeled off (``peeled``: :func:`split_controls` of
    ``matrix``, if the caller holds it) and index the view down to the
    changed slice; diagonal factors multiply only their non-identity
    entries.  ``lead`` counts leading batch axes (0 for a flat state, 1
    for the threaded backend's row blocks).
    """
    controls, targets, sub = peeled or split_controls(matrix, qubits)
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

    Bit-identical to applying the same op through the row kernel
    (:func:`apply_matrix_batched`, the hierarchical gather path), but
    never builds an index table or a gathered copy of the state: the
    flat array is reshaped to ``(2,)*n`` (a view) and the op touches only the slices
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
    check_operands(qubits, num_qubits)
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


def bytes_touched_for_gate(num_qubits: int) -> int:
    """Bytes moved through the memory system by one gate sweep.

    Every amplitude is read and written once (16 B complex128 each way);
    diagonal sweeps are identical in traffic, the savings are flops-side.

    >>> bytes_touched_for_gate(10)
    32768
    """
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
