"""Pluggable execution backends: where kernel sweeps actually run.

The paper's Algorithm 1 is one loop — per part: gather the inner
vectors, run the part's gates, scatter — and this module holds exactly
one copy of it, :func:`run_part_group` (``K`` jobs of one part at once;
:func:`run_part` is one job).  Every unit of work it produces is a
function of a *row range*: rows of the ``(2^(n-w), 2^w)`` gather matrix
(or of the flat state reshaped around the part's top qubit) are
independent, because a gate only mixes amplitudes within a row.  So the
only thing a backend decides is how row ranges are visited — its
:meth:`~ExecutionBackend.map_blocks`.

**The block rule** (:func:`_row_blocks`, the only place a block is
decided): a state of fewer than half of ``BLOCK_ELEMENTS`` amplitudes
is one block; anything larger splits into ``min(rows, max(threads,
ceil(elements / BLOCK_ELEMENTS)))`` contiguous blocks, so every fused op
of a part sweeps a cache-sized block before the next block starts.  For
a dense op over a row matrix (:meth:`~ExecutionBackend.apply_matrix_rows`)
the rule first presents each row wider than a block as ``2^s`` virtual
rows, so no row is too big to be a block:

* :class:`SerialBackend` — the rule's blocks at ``threads = 1``, in
  order, on the caller's thread: the single-threaded reference.
* :class:`ThreadedBackend` — the same rule at its thread count, the
  blocks drained by ``threads`` threads (the caller and a shared
  ``ThreadPoolExecutor``).  The heavy work per block is a GEMM
  (``numpy`` matmul) which releases the GIL into BLAS, so this yields
  real shared-memory parallelism.  Block boundaries depend only on
  ``(rows, elements, threads)`` and blocks write disjoint row slices,
  so output is **deterministic**: identical bits on every run, and a
  row matrix's identical at every thread count.

That is the whole contract — a backend is a block mapper and nothing
else.  The hierarchical executor calls :func:`run_part_group` over the
backend's :meth:`~ExecutionBackend.map_blocks` and
:attr:`~ExecutionBackend.strided_max`; the three entry points —
:meth:`~ExecutionBackend.run_plan` (one part of one job, for the
distributed engine), :meth:`~ExecutionBackend.apply_matrix_rows` (one
unitary over a row matrix, such as the IQS baseline's shards) and
:meth:`~ExecutionBackend.apply_gate_flat` (one gate of the flat
simulator) — are base-class methods over that mapper, and the executors
call no other hook.

**The lane rule** (stated here once; ``docs/backends.md`` elaborates):
a part whose fused ops all have at most ``DEFAULT_STRIDED_MAX`` (2)
target qubits after control extraction skips the gather
matrix and applies each op to the flat state through bit-strided views,
cutting a single-op part's memory traffic ~3x.  Any other part gathers
— unless its gather row is wider than the kept workspace (``2^w >
2 * BLOCK_ELEMENTS``): then it runs in place, row by row, each op through
the shard kernel over the row's virtual rows.  Every lane reduces to
GEMMs over the same columns, so they are bit-identical within a backend.
The decision is made in :func:`run_part_group` only and remembered on the
bound plan; it reports each job's lane (``"strided"`` / ``"gather"``,
in place or not) and the executor's ``ExecutionTrace`` tallies the
counts.

Backends are selected per executor (``backend="threaded"``), from the
CLI (``repro simulate --backend threaded --threads 4``) or globally via
the environment (``REPRO_BACKEND`` / ``REPRO_THREADS``).  A state below
half of ``BLOCK_ELEMENTS`` is one block on every backend, so parallel
dispatch overhead never taxes toy problems.
"""

from __future__ import annotations

import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.gates import Gate
from ..config import env
from . import kernels  # block constants, read at call time (tests shrink them)
from .kernels import (
    _apply_dense_split,
    _apply_diagonal,
    _apply_strided,
    _order_perm,
    apply_matrix_batched,
    check_operands,
    split_controls,
)
from .fusion import ROW, OpStacks, _stack, axis_sizes

__all__ = [
    "ExecutionBackend",
    "ResidentBlock",
    "SerialBackend",
    "ThreadedBackend",
    "BACKEND_NAMES",
    "get_backend",
    "one_block",
    "shared_backend",
    "resolve_backend",
    "run_part",
    "run_part_group",
    "split_blocks",
    "stack_limit",
]

#: ``fn(lo, hi)`` applied to a half-open row range.
BlockFn = Callable[[int, int], None]


def split_blocks(total: int, parts: int) -> List[Tuple[int, int]]:
    """Deterministic contiguous ``[lo, hi)`` blocks covering ``range(total)``.

    Depends only on ``(total, parts)`` — never on scheduling — which is
    what makes threaded execution reproducible run-to-run: the same rows
    always land in the same block, and blocks write disjoint slices.

    >>> split_blocks(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> split_blocks(2, 8)       # never more blocks than rows
    [(0, 1), (1, 2)]
    """
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    parts = max(1, min(parts, total))
    base, rem = divmod(total, parts)
    blocks: List[Tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _row_blocks(
    rows: int, elements: int, threads: int, columns: Optional[int] = None
) -> Tuple[int, List[Tuple[int, int]]]:
    """The block rule — the one place a block is decided.

    Returns ``(split, blocks)``.  ``blocks`` cover the virtual rows:
    fewer than half of ``BLOCK_ELEMENTS`` amplitudes are one block; more
    split into ``max(threads, ceil(elements / BLOCK_ELEMENTS))`` blocks,
    never more than there are virtual rows.  For one thread the
    half-block clause changes nothing (the ceiling is 1 below a block);
    it is where splitting a state across threads starts to pay.

    Rows are virtual rows unless ``columns`` — the GEMM columns a dense
    op has per row — lets the rule reshape them, never below
    ``MIN_GEMM_COLUMNS`` columns per GEMM:

    * a row wider than a block becomes ``2^split`` virtual rows, as
      close to one block each as the columns allow;
    * rows narrower than ``MIN_GEMM_COLUMNS`` columns are grouped
      ``2^-split`` to a virtual row (``split < 0``; the last one takes
      the remainder), so every block keeps whole column tiles.

    >>> _row_blocks(8, 1 << 13, 4)              # small: one block
    (0, [(0, 8)])
    >>> _row_blocks(8, 1 << 14, 2)              # half a block: one per thread
    (0, [(0, 4), (4, 8)])
    >>> _row_blocks(8, 1 << 17, 1)              # 4 cache-sized blocks
    (0, [(0, 2), (2, 4), (4, 6), (6, 8)])
    >>> _row_blocks(1, 1 << 17, 1, columns=1 << 13)   # 4 virtual rows
    (2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    >>> _row_blocks(1 << 13, 1 << 15, 3, columns=1)   # 4 rows a GEMM
    (-2, [(0, 683), (683, 1366), (1366, 2048)])
    """
    split = 0
    if columns is not None:
        # log2(columns / MIN_GEMM_COLUMNS), both powers of two: the most
        # a row may split, or (negative) how many rows must group.
        split = columns.bit_length() - kernels.MIN_GEMM_COLUMNS.bit_length()
        if split > 0:
            wide = elements // (rows * kernels.BLOCK_ELEMENTS) if rows else 0
            split = min(split, max(0, wide.bit_length() - 1))
    virtual = rows << split if split >= 0 else max(1, rows >> -split)
    if 2 * elements < kernels.BLOCK_ELEMENTS:
        return split, [(0, virtual)]
    parts = max(threads, -(-elements // kernels.BLOCK_ELEMENTS))
    return split, split_blocks(virtual, parts)


def _map_row_groups(
    map_blocks: Callable[[BlockFn, int, int], None],
    fn: BlockFn,
    rows: int,
    elements: int,
    columns: Optional[int],
) -> None:
    """``fn(lo, hi)`` over ``range(rows)`` in blocks of whole GEMM tiles.

    Rows whose dense ops have fewer than ``MIN_GEMM_COLUMNS`` GEMM
    ``columns`` each (a power of two; ``None``: no GEMM) are grouped
    ``MIN_GEMM_COLUMNS / columns`` to a virtual row, the last one taking
    the remainder — the block rule's grouping — so no block's GEMM is
    narrower than a whole-state one would be."""
    group = max(1, kernels.MIN_GEMM_COLUMNS // columns) if columns else 1
    virtual = max(1, rows // group)

    def block(lo: int, hi: int) -> None:
        fn(lo * group, rows if hi == virtual else hi * group)

    map_blocks(block, virtual, elements)


def _gemm_columns(plan, width: int) -> int:
    """Columns per ``2^width``-amplitude row of ``plan``'s widest op: a
    dense op's GEMM columns, or the amplitudes per row that one entry
    of a diagonal op's factor multiplies.

    Diagonal ops count too because numpy multiplies a one-amplitude
    loop on its scalar path, whose complex product can round apart from
    its vector path's: a block of whole groups keeps every strided
    slice at two amplitudes or more, so the bits do not depend on how
    the rows were split."""
    k = max((len(op.qubits) for op in plan.ops), default=0)
    return 1 << (width - k)


# ---------------------------------------------------------------------------
# The part-sweep core
# ---------------------------------------------------------------------------

#: Each thread's gather workspace: two complex128 buffers, one holding a
#: gathered block and one taking the next copy or GEMM result.
_workspaces = threading.local()


def _workspace(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Two buffers of at least ``size`` amplitudes for this thread, kept
    for its next block, so a sweep allocates nothing after its first.

    The block rule bounds what is kept: a gathered block of ``w``-qubit
    rows holds at most ``max(BLOCK_ELEMENTS, 2^w)`` amplitudes, and
    :func:`run_part_group` gathers no row wider than ``2 *
    BLOCK_ELEMENTS``, and stacks no more jobs than :func:`stack_limit`.

    >>> B = kernels.BLOCK_ELEMENTS
    >>> max(
    ...     (hi - lo) << w
    ...     for w in range(17) for n in range(w, 24) for threads in (1, 2, 3)
    ...     for lo, hi in _row_blocks(1 << (n - w), 1 << n, threads)[1]
    ... ) == 2 * B
    True
    """
    pair = getattr(_workspaces, "pair", None)
    if pair is None or pair[0].size < size:
        pair = _workspaces.pair = (
            np.empty(size, dtype=np.complex128),
            np.empty(size, dtype=np.complex128),
        )
    return pair


def _strided_eligible(plan, strided_max: int) -> bool:
    """True when every op of ``plan`` fits the gather-free strided path:
    at most ``strided_max`` target qubits after control extraction.

    Control extraction is a scan of every fused matrix, so the answer is
    remembered on the bound plan (``plan.lane_memo``) per ``strided_max``.
    The write is idempotent — concurrent runs sharing a plan can only
    store the same tuple — so it needs no lock."""
    if strided_max < 0:
        return False
    memo = plan.lane_memo
    if memo is not None and memo[0] == strided_max:
        return memo[1]
    eligible = True
    for op in plan.ops:
        if len(op.qubits) <= strided_max:
            continue  # controls can only shrink the target count
        _, targets, _ = split_controls(op.matrix(), op.qubits)
        if len(targets) > strided_max:
            eligible = False
            break
    plan.lane_memo = (strided_max, eligible)
    return eligible


def _apply_rows(
    rows: np.ndarray,
    matrix: np.ndarray,
    positions: Sequence[int],
    num_local: int,
    diagonal: bool,
    map_blocks: Callable[[BlockFn, int, int], None],
) -> None:
    """The shard kernel: one unitary over every row of ``rows``
    (``(B, 2^num_local)``, in place; ``positions`` are row-local qubit
    indices), its blocks visited by ``map_blocks``.

    A diagonal op is one in-place multiply per row block.  A dense op
    runs over the block rule's virtual rows: a row wider than a block
    splits, one GEMM per virtual row, so a single row still spreads over
    threads; rows of fewer than ``MIN_GEMM_COLUMNS`` columns group.
    Either way every GEMM column is computed as in one GEMM over all
    rows, so the bits do not depend on the thread count."""
    if rows.ndim != 2 or rows.shape[1] != 1 << num_local:
        raise ValueError(f"rows must be (B, {1 << num_local})")
    check_operands(positions, num_local)
    batch = rows.shape[0]
    # A diagonal op makes no copy and runs no GEMM: its rows stay whole.
    columns = None if diagonal else 1 << (num_local - len(positions))
    split = _row_blocks(batch, rows.size, 1, columns)[0]
    if split > 0:

        def block(lo: int, hi: int) -> None:
            _apply_dense_split(
                rows, matrix, positions, num_local, split, lo, hi
            )

        map_blocks(block, batch << split, rows.size)
        return

    def block(lo: int, hi: int) -> None:
        apply_matrix_batched(
            rows[lo:hi], matrix, positions, num_local, diagonal=diagonal
        )

    _map_row_groups(map_blocks, block, batch, rows.size, columns)


def stack_limit(num_qubits: int) -> int:
    """How many same-structure jobs of ``num_qubits`` qubits sweep a part
    together: ``max(1, 2 * BLOCK_ELEMENTS >> num_qubits)``, so the
    stacked gathered blocks stay within the workspace bound that
    :func:`_workspace` keeps, and every block is whole jobs.

    >>> [stack_limit(n) for n in (12, 14, 15, 16, 20)]
    [16, 4, 2, 1, 1]
    """
    return max(1, (2 * kernels.BLOCK_ELEMENTS) >> num_qubits)


def _op_stacks(plans) -> OpStacks:
    """The op matrix stacks of ``plans`` (one part's plans for ``K``
    jobs): their bind's own when the plans were bound together, in this
    order; any other group is stacked here (one plan is viewed, not
    copied)."""
    group = plans[0].stack[0]
    if group.jobs == len(plans) and (
        len(plans) == 1
        or all(
            p.stack[0] is group and p.stack[1] == k
            for k, p in enumerate(plans)
        )
    ):
        return group
    return OpStacks(
        tuple(
            _stack([plan.ops[i].matrix() for plan in plans])
            for i in range(plans[0].num_ops)
        ),
        len(plans),
    )


def _sweep_operands(plans) -> tuple:
    """Per op of ``plans``, what the gathered sweep multiplies by: a
    dense op's ``(K, d, d)`` matrix stack, a diagonal op's contiguous
    ``(K, d)`` diagonals, without the job axis for one job — built once
    per bound group (a benign race between threads builds an equal
    tuple)."""
    group = plans[0].stack[0]
    if len(plans) == 1 == group.jobs and group.operands is not None:
        return group.operands  # one job bound alone: the common rerun
    group = _op_stacks(plans)
    if group.operands is None:
        operands = [
            np.ascontiguousarray(np.diagonal(stack, axis1=1, axis2=2))
            if op.is_diagonal
            else stack
            for stack, op in zip(group.matrices, plans[0].ops)
        ]
        if group.jobs == 1:
            operands = [op[0] for op in operands]  # no job axis
        group.operands = tuple(operands)
    return group.operands


def one_block(
    map_blocks: Callable[[BlockFn, int, int], None], num_qubits: int
) -> bool:
    """True when ``map_blocks`` visits a ``num_qubits``-qubit state as
    one block however finely its rows are cut: one amplitude a row, the
    finest any part cuts it into, still comes back whole.  Every gathered
    part then sweeps the whole state as one block, so a run of them can
    keep it resident (:class:`ResidentBlock`).  Under the block rule
    that is ``2^n < BLOCK_ELEMENTS / 2``, or ``2^n <= BLOCK_ELEMENTS`` on
    one thread.  A state wider than the kept workspace (``2 *
    BLOCK_ELEMENTS``) is never resident, so its mapper is not asked.

    >>> [one_block(SerialBackend().map_blocks, n) for n in (15, 16)]
    [True, False]
    >>> threaded = ThreadedBackend(2)
    >>> [one_block(threaded.map_blocks, n) for n in (13, 14)]
    [True, False]
    >>> threaded.close()
    """
    elements = 1 << num_qubits
    if elements > 2 * kernels.BLOCK_ELEMENTS:
        return False
    blocks: List[Tuple[int, int]] = []
    map_blocks(lambda lo, hi: blocks.append((lo, hi)), elements, elements)
    return blocks == [(0, elements)]


class ResidentBlock:
    """The gathered block of ``K`` jobs: a part's row block, or a whole
    state held across a run of parts.

    Its amplitudes sit in this thread's workspace pair
    (:func:`_workspace`; a ``(K, size)`` stack within
    :func:`stack_limit`) as labelled axes in ``order``, most
    significant first: the qubits, and :data:`~repro.sv.fusion.ROW` for
    a row block's gather row.

    * :meth:`gather` takes rows ``index`` of a part's gather table from
      each job's state, in order ``(ROW,) + qubits[::-1]``;
    * :meth:`load` copies whole states, one axis per qubit.  When the
      state is one block (:func:`one_block`) gathering it buys no
      locality, so :func:`run_part_group` keeps one loaded block across
      a run of gathered parts and writes it back when the run ends: at
      a part some job takes another lane for, when the jobs change (one
      dropped out with an error, or a tableau joined), or when the
      caller is done.

    :meth:`sweep` runs a part's ops from the order the block is in and
    leaves it in the last dense op's order; :meth:`flush` writes it back
    in natural order — a whole state by one transposing copy, a row
    block by a transposing copy into the spare buffer, then the
    scatter.  Every GEMM keeps the shape and columns it has in a
    copy-GEMM-write-back sweep of its part alone, so the bits are that
    sweep's.  A sweep that raises loses the block: its states keep what
    they held when it was taken.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.sv.fusion import compile_part
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).ry(0.4, 2).cx(2, 1)
    >>> parts = [compile_part(qc, [0, 1], [0, 1]),
    ...          compile_part(qc, [2, 3], [2, 1])]
    >>> inline = lambda fn, rows, elements: fn(0, rows)
    >>> state = np.zeros(8, dtype=np.complex128); state[0] = 1.0
    >>> alone = state.copy()
    >>> resident = ResidentBlock()
    >>> for plan in parts:      # strided_max=-1: every part gathers
    ...     _ = run_part_group([plan], [state], 3, -1, inline, resident)
    ...     _ = run_part_group([plan], [alone], 3, -1, inline)
    >>> float(state[0].real), resident.order   # the block is resident
    (1.0, (1, 2, 0))
    >>> resident.flush()
    >>> bool(np.array_equal(state, alone))
    True
    """

    __slots__ = ("states", "index", "rows", "natural", "order", "cur", "spare")

    def __init__(self) -> None:
        self.states: Tuple[np.ndarray, ...] = ()
        self.index: Optional[np.ndarray] = None
        self.rows = 1
        self.natural: Tuple[int, ...] = ()
        self.order: Tuple[int, ...] = ()
        self.cur: Optional[np.ndarray] = None
        self.spare: Optional[np.ndarray] = None

    def holds(self, states: Sequence[np.ndarray]) -> bool:
        """Whether the block is ``states``, job for job."""
        return len(states) == len(self.states) and all(
            map(operator.is_, states, self.states)
        )

    def _take(self, states: Sequence[np.ndarray], size: int) -> np.ndarray:
        """This thread's workspace for ``states``, ``size`` amplitudes
        each (it may raise :class:`MemoryError`): ``(K, size)`` in
        ``cur``."""
        pair = _workspace(len(states) * size)
        self.cur = pair[0][: len(states) * size]
        self.spare = pair[1][: self.cur.size]
        self.states = tuple(states)
        return self.cur.reshape(len(states), size)

    def load(self, states: Sequence[np.ndarray]) -> None:
        """Take whole ``states`` in natural order."""
        for block, state in zip(self._take(states, states[0].size), states):
            block[...] = state
        self.index, self.rows = None, 1
        n = states[0].size.bit_length() - 1
        self.natural = self.order = tuple(range(n - 1, -1, -1))

    def gather(
        self,
        states: Sequence[np.ndarray],
        index: np.ndarray,
        qubits: Tuple[int, ...],
    ) -> None:
        """Take rows ``index`` (a block of a part's gather table, whose
        columns are ``qubits``) of every state in ``states``."""
        rows = index.shape[0]
        for block, state in zip(
            self._take(states, rows << len(qubits)), states
        ):
            # "clip": the index is in range, and the default "raise"
            # would stage the gather in a temporary before ``out``.
            np.take(state, index, out=block.reshape(rows, -1), mode="clip")
        self.index, self.rows = index, rows
        self.natural = self.order = (ROW,) + qubits[::-1]

    def sweep(self, structure, operands: tuple) -> None:
        """Run a part's ops (``structure``, multiplying by ``operands``,
        :func:`_sweep_operands`) over the block from its current order:
        a dense op is at most one transposing copy into ``spare`` and one
        stacked ``np.matmul``, a diagonal op one in-place multiply per
        job."""
        stack = len(self.states)
        size = self.cur.size // stack
        steps, end = structure.sweep_plan(self.order, self.rows, stack)
        cur, spare = self.cur, self.spare
        for (shape, perm, target, gemm), mat in zip(steps, operands):
            if gemm is None:
                # Diagonal: in place, in the current order (the step
                # holds the operand axes and the row axis), job by job.
                if stack == 1:
                    _apply_diagonal(cur.reshape(shape), mat, perm, target)
                    continue
                for k in range(stack):
                    _apply_diagonal(
                        cur[k * size : (k + 1) * size].reshape(shape),
                        mat[k],
                        perm,
                        target,
                    )
                continue
            if perm is not None:
                np.copyto(
                    spare.reshape(target), cur.reshape(shape).transpose(perm)
                )
                cur, spare = spare, cur
            np.matmul(mat, cur.reshape(gemm), out=spare.reshape(gemm))
            cur, spare = spare, cur
        self.cur, self.spare, self.order = cur, spare, end

    def flush(self) -> None:
        """Write each job's block back to its state in natural order."""
        if not self.states:
            return
        size = self.cur.size // len(self.states)
        sizes = axis_sizes(self.order, self.rows)
        perm = _order_perm(sizes, self.order, self.natural)
        shape = tuple(sizes[a] for a in self.order)
        natural = tuple(sizes[a] for a in self.natural)
        for k, state in enumerate(self.states):
            block = self.cur[k * size : (k + 1) * size]
            # A whole state transposes straight back; a row block into
            # ``spare``, then scatters.
            if perm is not None:
                out = state if self.index is None else self.spare[
                    k * size : (k + 1) * size
                ]
                np.copyto(
                    out.reshape(natural), block.reshape(shape).transpose(perm)
                )
                block = out
            if self.index is not None:
                state[self.index] = block.reshape(self.rows, -1)
            elif block is not state:
                np.copyto(state, block)
        self.states = ()
        self.index = self.cur = self.spare = None


def _sweep_gathered(
    plans,
    states: Sequence[np.ndarray],
    num_qubits: int,
    map_blocks: Callable[[BlockFn, int, int], None],
    resident: Optional[ResidentBlock] = None,
) -> None:
    """The gathered body of :func:`run_part_group` for ``K`` jobs whose
    plans share one structure: per block, gather every job's rows into
    one :class:`ResidentBlock`, sweep each op over all ``K`` and flush.
    Blocks come from one job's amplitude count, so each job's GEMMs keep
    the shape and columns they have alone, and its bits.  A block whose
    stacked workspace cannot be allocated runs its jobs one at a time.

    With ``resident`` (holding ``states``) the block is already
    gathered: the ops sweep it where the last part left it, and it
    stays there for the next part."""
    plan = plans[0]
    structure = plan.structure
    operands = _sweep_operands(plans)
    if resident is not None:
        resident.sweep(structure, operands)
        return
    gather_rows = plan.gather_rows(num_qubits)

    def block(lo: int, hi: int) -> None:
        index = gather_rows(lo, hi)
        stacked = ResidentBlock()
        try:
            stacked.gather(states, index, plan.qubits)
        except MemoryError:
            if len(states) == 1:
                raise
            for k, state in enumerate(states):
                alone = ResidentBlock()
                alone.gather([state], index, plan.qubits)
                alone.sweep(structure, [op[k] for op in operands])
                alone.flush()
            return
        stacked.sweep(structure, operands)
        stacked.flush()

    _map_row_groups(
        map_blocks,
        block,
        1 << (num_qubits - len(plan.qubits)),
        states[0].size,
        _gemm_columns(plan, len(plan.qubits)),
    )


def _joins_run(plans, lanes, states, num_qubits, resident) -> bool:
    """Whether this part sweeps ``resident``'s block: every job gathers,
    in one stack of one structure within the workspace bound.  Starts a
    run (loads the block) when ``resident`` holds other states, ending
    theirs; a part that cannot join ends it too.  A stack the workspace
    cannot take sweeps this part as if nothing were resident."""
    structure = plans[0].structure
    if (
        "strided" in lanes
        or len(states) << num_qubits > 2 * kernels.BLOCK_ELEMENTS
        or len(plans) > 1
        and any(plan.structure is not structure for plan in plans)
    ):
        resident.flush()
        return False
    if not resident.holds(states):
        resident.flush()
        try:
            resident.load(states)
        except MemoryError:
            return False
    return True


def run_part_group(
    plans,
    states: Sequence[np.ndarray],
    num_qubits: int,
    strided_max: int,
    map_blocks: Callable[[BlockFn, int, int], None],
    resident: Optional[ResidentBlock] = None,
) -> List[str]:
    """Algorithm 1 for one part of ``K`` jobs — the only copy; returns
    the lane each job ran.

    ``plans[k]`` (each bound for the same part) runs on ``states[k]``;
    their qubits are bits of the states' index (the circuit's qubits on
    a flat state; layout positions on a distributed one).  Decides each
    job's kernel lane (:func:`_strided_eligible`),
    builds the per-row-range body for it, and hands that body to
    ``map_blocks(fn, rows, elements)``, which visits ``range(rows)`` in
    the block rule's blocks (``elements`` is one job's amplitude count
    they are sized from).  Three bodies exist:

    * ``"strided"`` — ops touch only qubits below some axis, so the
      flat state splits into independent leading rows and each op lands
      on them through bit-strided views: no index table, no gathered
      copy;
    * ``"gather"``, in place — a gather row wider than the kept
      workspace (``2^w > 2 * BLOCK_ELEMENTS``) is not gathered: the
      flat state splits into leading rows as above, and row by row
      every op runs through the shard kernel (:func:`_apply_rows`) over
      the row's virtual rows, so the part still finishes one row before
      the next starts;
    * ``"gather"``, gathered — the jobs on this lane whose plans share
      one structure (one ``PartPlanStructure`` object), up to
      :func:`stack_limit` at a time, are swept together
      (:func:`_sweep_gathered`): per block, a :class:`ResidentBlock`
      gathers the rows' inner vectors into this thread's workspace,
      sweeps every op over the stack and flushes them back; the block's
      gather indices come from ``plan.gather_rows``, so no
      ``2^n``-entry table is built that is too big to keep.  A dense op
      leaves its GEMM result in its own axis order, so it costs at most
      one transposing copy and a GEMM; a diagonal op multiplies in
      whatever order the block is in, and one copy restores natural
      order before the scatter.  The orders are planned once per part
      structure, start order and row count
      (``PartPlanStructure.sweep_plan``); every GEMM keeps the shape
      and columns of a copy-GEMM-write-back sweep of its job alone, so
      the bits are its.

    The strided and in-place bodies run job by job.

    ``resident`` (a :class:`ResidentBlock`, given only where
    :func:`one_block` holds) carries a run of parts: a part every job
    gathers for, in one stack, sweeps the resident block where the last
    part left it (:func:`_joins_run`), no gather and no scatter; any
    other part first writes it back.

    >>> from repro.circuits.generators import qaoa
    >>> from repro.sv.fusion import PlanCache
    >>> jobs = [qaoa(4, p=1, gammas=[g], betas=[0.4]) for g in (0.1, 0.2)]
    >>> plans = PlanCache().get_or_compile_group(
    ...     jobs, range(len(jobs[0])), range(4), structural_key="qaoa4")
    >>> states = [np.zeros(16, dtype=np.complex128) for _ in jobs]
    >>> for state in states:
    ...     state[0] = 1.0
    >>> inline = lambda fn, rows, elements: fn(0, rows)
    >>> run_part_group(plans, states, 4, 2, inline)
    ['gather', 'gather']
    >>> bool((states[0] != states[1]).any())
    True
    """
    lanes = [
        "strided" if _strided_eligible(plan, strided_max) else "gather"
        for plan in plans
    ]
    if resident is not None and _joins_run(
        plans, lanes, states, num_qubits, resident
    ):
        _sweep_gathered(plans, states, num_qubits, map_blocks, resident)
        return lanes
    stacks: Dict[object, tuple] = {}  # gathered (plans, states) by structure
    for plan, state, lane in zip(plans, states, lanes):
        if lane == "strided":
            _sweep_strided(plan, state, map_blocks)
            continue
        if 1 << len(plan.qubits) > 2 * kernels.BLOCK_ELEMENTS:
            _sweep_in_place(plan, state, map_blocks)
            continue
        group = stacks.get(plan.structure)
        if group is None:
            group = stacks[plan.structure] = ([], [])
        group[0].append(plan)
        group[1].append(state)
    limit = stack_limit(num_qubits)
    for group_plans, group_states in stacks.values():
        for i in range(0, len(group_plans), limit):
            _sweep_gathered(
                group_plans[i : i + limit],
                group_states[i : i + limit],
                num_qubits,
                map_blocks,
            )
    return lanes


def _sweep_strided(plan, state, map_blocks) -> None:
    """The strided body of :func:`run_part_group` for one job."""
    if not plan.ops:
        return
    local = 1 + max(q for op in plan.ops for q in op.qubits)
    view = state.reshape(-1, 1 << local)

    def block(lo: int, hi: int) -> None:
        sub = view[lo:hi].reshape((hi - lo,) + (2,) * local)
        for op in plan.ops:
            _apply_strided(
                sub, op.matrix(), op.qubits, local, 1, op.is_diagonal
            )

    _map_row_groups(
        map_blocks, block, view.shape[0], state.size,
        _gemm_columns(plan, local),
    )


def _sweep_in_place(plan, state, map_blocks) -> None:
    """The in-place body of :func:`run_part_group` for one job: a gather
    row wider than the kept workspace is swept one row of the flat state
    at a time (more only where a row holds too few GEMM columns), every
    op on a row before the next row starts."""
    local = 1 + max(plan.qubits)
    view = state.reshape(-1, 1 << local)
    step = max(1, kernels.MIN_GEMM_COLUMNS // _gemm_columns(plan, local))
    for r in range(0, view.shape[0], step):
        for op in plan.ops:
            _apply_rows(
                view[r:r + step], op.matrix(), op.qubits, local,
                op.is_diagonal, map_blocks,
            )


def run_part(
    plan,
    state: np.ndarray,
    num_qubits: int,
    strided_max: int,
    map_blocks: Callable[[BlockFn, int, int], None],
) -> str:
    """:func:`run_part_group` for one job: ``plan`` on ``state``; returns
    the lane that ran.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.sv.fusion import compile_part
    >>> qc = QuantumCircuit(2).x(0).cx(0, 1)
    >>> plan = compile_part(qc, [0, 1], [0, 1])
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> inline = lambda fn, rows, elements: fn(0, rows)
    >>> run_part(plan, state, 2, 2, inline)
    'strided'
    >>> state.real.tolist()
    [0.0, 0.0, 0.0, 1.0]
    >>> run_part(plan, state, 2, -1, inline)   # strided_max=-1: gathered
    'gather'
    >>> state.real.tolist()
    [0.0, 0.0, 1.0, 0.0]
    """
    (lane,) = run_part_group(
        [plan], [state], num_qubits, strided_max, map_blocks
    )
    return lane


class ExecutionBackend:
    """A block mapper plus the three entry points built on it.

    * :meth:`run_plan` — one hierarchical part (:func:`run_part`).
    * :meth:`apply_matrix_rows` — one unitary over a row-batched state
      (the distributed engines' shard matrix).
    * :meth:`apply_gate_flat` — one gate on a flat ``2^n`` state (the
      flat simulator).

    All three describe their work as a function of a row range and pass
    it to :meth:`map_blocks`; a subclass overrides that one method to
    change *where* rows run and inherits everything else.  The base
    mapper visits the block rule's blocks in order on the caller's
    thread, which makes a bare subclass a serial backend.

    Backends may hold resources (a thread pool); ``close()`` releases
    them and instances are usable as context managers.

    ``strided_max`` is the lane rule's arity ceiling (default
    ``DEFAULT_STRIDED_MAX``; negative forces the gather lane).

    >>> resolve_backend("serial").describe()
    'serial'
    >>> get_backend("threaded", threads=4).describe()
    'threaded[4]'
    """

    name = "abstract"

    def __init__(self, *, strided_max: Optional[int] = None) -> None:
        self.strided_max = (
            kernels.DEFAULT_STRIDED_MAX
            if strided_max is None
            else int(strided_max)
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release pools/caches; the backend may be used again after."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> str:
        """Human-readable identity, e.g. ``threaded[4]``."""
        return self.name

    # -- the seam ----------------------------------------------------------

    def map_blocks(self, fn: BlockFn, rows: int, elements: int) -> None:
        """Run ``fn(lo, hi)`` over blocks that exactly cover
        ``range(rows)``; ``elements`` is the amplitude count behind
        them.  Blocks are independent and write disjoint slices; every
        block must have finished (or its error been raised) on return.
        Here: the block rule's blocks at one thread, in order, on the
        caller's thread."""
        for lo, hi in _row_blocks(rows, elements, 1)[1]:
            fn(lo, hi)

    # -- work --------------------------------------------------------------

    def run_plan(self, plan, state: np.ndarray, num_qubits: int) -> str:
        """Execute one part plan; returns the kernel path that ran
        (``"strided"`` for the gather-free fast lane, ``"gather"`` for
        the gather-matrix sweep)."""
        return run_part(
            plan, state, num_qubits, self.strided_max, self.map_blocks
        )

    def apply_matrix_rows(
        self,
        rows: np.ndarray,
        matrix: np.ndarray,
        positions: Sequence[int],
        num_local: int,
        *,
        diagonal: bool = False,
    ) -> None:
        """Apply one unitary to every row of ``rows`` (``(B, 2^num_local)``,
        in place); ``positions`` are row-local qubit indices
        (:func:`_apply_rows` on this backend's mapper)."""
        _apply_rows(
            rows, matrix, positions, num_local, diagonal, self.map_blocks
        )

    def apply_gate_flat(
        self, state: np.ndarray, gate: Gate, num_qubits: int
    ) -> None:
        """Apply one gate to a flat ``2^n`` state (in place).

        A gate on qubits ``< w`` leaves the leading ``2^(n-w)`` blocks of
        the flat state independent: reshape (no copy) and treat them as
        rows."""
        if state.shape != (1 << num_qubits,):
            raise ValueError(
                f"state must be a flat vector of {1 << num_qubits} amplitudes"
            )
        w = max(gate.qubits) + 1
        self.apply_matrix_rows(
            state.reshape(-1, 1 << w), gate.matrix(), gate.qubits, w,
            diagonal=gate.is_diagonal,
        )


class SerialBackend(ExecutionBackend):
    """Single-threaded execution — the reference all others must match.

    The base mapper (the block rule's blocks one after another on the
    caller's thread) over the shared core: small fused groups run
    gather-free (``strided_max``, default ``DEFAULT_STRIDED_MAX``);
    everything else takes the classic
    gather/execute/scatter sweep.  Both lanes are bit-identical.

    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> SerialBackend().apply_gate_flat(state, make_gate("x", [0]), 2)
    >>> int(state.argmax())
    1
    """

    name = "serial"


class ThreadedBackend(ExecutionBackend):
    """Row-block parallelism on a thread pool.

    >>> import numpy as np
    >>> rows = np.eye(4, dtype=np.complex128)
    >>> backend = ThreadedBackend(2)
    >>> X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    >>> backend.apply_matrix_rows(rows, X, [0], 2)
    >>> [int(r.argmax()) for r in rows]       # qubit 0 flipped per row
    [1, 0, 3, 2]
    >>> backend.close()

    ``threads`` is how many blocks run at once, ``>= 1``, the calling
    thread included (the pool holds ``threads - 1`` workers; ``1``
    builds no pool and is :class:`SerialBackend`'s mapper).  Only
    ``None`` means ``os.cpu_count()``.  Blocks come from the block
    rule at this thread count, so a state of half ``BLOCK_ELEMENTS``
    amplitudes or more splits into at least ``threads`` blocks.
    """

    name = "threaded"

    def __init__(
        self,
        threads: Optional[int] = None,
        *,
        strided_max: Optional[int] = None,
    ) -> None:
        super().__init__(strided_max=strided_max)
        self.threads = (
            (os.cpu_count() or 1) if threads is None else int(threads)
        )
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def describe(self) -> str:
        return f"threaded[{self.threads}]"

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads - 1,
                    thread_name_prefix="repro-sv",
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def map_blocks(self, fn: BlockFn, rows: int, elements: int) -> None:
        """Run ``fn(lo, hi)`` over the block rule's blocks on at most
        ``threads`` threads, the caller being one of them, so a 1-block
        or 1-thread dispatch never pays pool latency.

        Every drainer takes blocks off one queue until it is empty.  All
        of them are joined before returning *or raising* — propagating
        early would let pool threads keep mutating the caller's state
        behind an unwinding stack (and lose their errors).  The first
        failure (the caller's first) is re-raised.
        """
        _, blocks = _row_blocks(rows, elements, self.threads)
        todo = deque(blocks)

        def drain() -> None:
            while True:
                try:
                    lo, hi = todo.popleft()  # atomic: one taker per block
                except IndexError:
                    return
                fn(lo, hi)

        helpers = min(self.threads, len(blocks)) - 1
        futures = [self._get_pool().submit(drain) for _ in range(helpers)]
        error: Optional[BaseException] = None
        try:
            drain()
        except BaseException as exc:
            error = exc
        for f in futures:
            try:
                f.result()
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error


# ---------------------------------------------------------------------------
# Selection / sharing
# ---------------------------------------------------------------------------

BACKEND_NAMES = ("serial", "threaded")

_BACKEND_CLASSES = {
    "serial": SerialBackend,
    "threaded": ThreadedBackend,
}

_shared: Dict[tuple, ExecutionBackend] = {}
_shared_lock = threading.Lock()


def get_backend(
    name: str, *, threads: Optional[int] = None, **kwargs
) -> ExecutionBackend:
    """Construct a fresh backend by name (caller owns/closes it).

    >>> get_backend("serial").name
    'serial'
    >>> get_backend("threaded", threads=2).threads
    2
    """
    if name not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}"
        )
    if name == "serial":
        return SerialBackend(**kwargs)
    return _BACKEND_CLASSES[name](threads, **kwargs)


def shared_backend(
    name: str, threads: Optional[int] = None
) -> ExecutionBackend:
    """Process-wide shared backend instance for ``(name, threads)``.

    Executors resolved from names/environment share pools through here,
    so a test suite running under ``REPRO_BACKEND=threaded`` spins up
    one thread pool, not one per executor.  Shared instances are never
    closed by their users; they live for the process.

    >>> shared_backend("serial") is shared_backend("serial")
    True
    """
    key = (name, threads)
    with _shared_lock:
        backend = _shared.get(key)
        if backend is None:
            backend = get_backend(name, threads=threads)
            _shared[key] = backend
        return backend


def resolve_backend(
    spec: Union[None, str, ExecutionBackend] = None,
    threads: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a ``backend=`` argument to a live backend.

    ``None`` consults ``REPRO_BACKEND`` (default ``serial``; an unknown
    name there is a :class:`ValueError` that says where it came from); a
    string names a shared instance; an :class:`ExecutionBackend` passes
    through.  ``threads`` defaults from ``REPRO_THREADS`` when unset.

    >>> resolve_backend("threaded", 2).describe()
    'threaded[2]'
    >>> backend = SerialBackend()
    >>> resolve_backend(backend) is backend
    True
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = env("REPRO_BACKEND")
        if spec not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {spec!r} in REPRO_BACKEND; choose from "
                f"{BACKEND_NAMES}"
            )
    if threads is None:
        threads = env("REPRO_THREADS")
    if spec == "serial":
        threads = None  # one shared instance regardless of thread count
    return shared_backend(spec, threads)
