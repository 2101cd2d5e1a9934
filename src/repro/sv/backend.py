"""Pluggable execution backends: where kernel sweeps actually run.

The paper's Algorithm 1 is one loop — per part: gather the inner
vectors, run the part's gates, scatter — and this module holds exactly
one copy of it, :func:`run_part_group` (``K`` jobs of one part at once;
:meth:`~ExecutionBackend.run_plan` is one job).  Every unit of work it
produces is a function of a *row range*: rows of the ``(2^(n-w), 2^w)``
gather matrix (or of the flat state reshaped around the part's top
qubit) are independent, because a gate only mixes amplitudes within a
row.  So the only thing a backend decides is how row ranges are visited
— its :meth:`~ExecutionBackend.map_blocks`.

**The block rule** (:func:`_row_blocks`, the only place a block is
decided): a state of fewer than half of ``BLOCK_ELEMENTS`` amplitudes
is one block; anything larger splits into ``min(rows, max(threads,
ceil(elements / BLOCK_ELEMENTS)))`` contiguous blocks, so every fused op
of a part sweeps a cache-sized block before the next block starts.  For
a dense op over a row matrix (:meth:`~ExecutionBackend.apply_matrix_rows`)
each row wider than a block is first presented as ``2^s`` virtual rows
(:func:`_dense_split`), so no row is too big to be a block:

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

**The lane rule** (stated here once; ``docs/backends.md`` elaborates),
per bound plan (:func:`run_part_group`): a part whose fused ops all
have at most ``DEFAULT_STRIDED_MAX`` (2) target qubits after control
extraction runs ``strided``, through bit-strided views of the flat
state (a single-op part moves ~3x less memory); one whose gather row is
wider than the kept workspace (``2^w > 2 * BLOCK_ELEMENTS``) runs
``in_place``, row by row; any other gathers.  A part structure
compiles each lane once into a program of steps
(``PartPlanStructure.program``), and :func:`run_part_group` walks it
(its docstring holds the step table).  Every lane reduces to GEMMs over
the same columns, so they are bit-identical within a backend; the
executor's ``ExecutionTrace`` tallies the lane each job reports
(``"strided"`` / ``"gather"``).

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
    apply_matrix_batched,
    check_operands,
)
from .fusion import OpStacks, _stack

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
    rows: int, elements: int, threads: int
) -> List[Tuple[int, int]]:
    """The block rule — the one place a block is decided.

    ``rows`` rows of ``elements`` amplitudes in all: fewer than half of
    ``BLOCK_ELEMENTS`` amplitudes are one block; more split into
    ``max(threads, ceil(elements / BLOCK_ELEMENTS))`` contiguous blocks,
    never more than there are rows.  For one thread the half-block
    clause changes nothing (the ceiling is 1 below a block); it is where
    splitting a state across threads starts to pay.

    >>> _row_blocks(8, 1 << 13, 4)              # small: one block
    [(0, 8)]
    >>> _row_blocks(8, 1 << 14, 2)              # half a block: one per thread
    [(0, 4), (4, 8)]
    >>> _row_blocks(8, 1 << 17, 1)              # 4 cache-sized blocks
    [(0, 2), (2, 4), (4, 6), (6, 8)]
    """
    if 2 * elements < kernels.BLOCK_ELEMENTS:
        return [(0, rows)]
    parts = max(threads, -(-elements // kernels.BLOCK_ELEMENTS))
    return split_blocks(rows, parts)


def _dense_split(rows: int, elements: int, columns: int) -> int:
    """``s >= 0``: a dense op of ``columns`` GEMM columns per row runs
    each row wider than a block as ``2^s`` virtual rows of about a block,
    never below ``MIN_GEMM_COLUMNS`` columns per GEMM.

    >>> _dense_split(1, 1 << 17, 1 << 13), _row_blocks(4, 1 << 17, 1)
    (2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    """
    # log2(columns / MIN_GEMM_COLUMNS), both powers of two.
    split = columns.bit_length() - kernels.MIN_GEMM_COLUMNS.bit_length()
    if split <= 0 or not rows:
        return 0
    wide = elements // (rows * kernels.BLOCK_ELEMENTS)
    return min(split, max(0, wide.bit_length() - 1))


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
    the remainder, and the block rule splits the virtual rows — so no
    block's GEMM is narrower than a whole-state one would be.

    >>> seen = []                               # 4 rows a GEMM, 3 threads
    >>> _map_row_groups(lambda f, r, e: [f(*b) for b in _row_blocks(r, e, 3)],
    ...                 lambda *b: seen.append(b), 1 << 13, 1 << 15, 1)
    >>> seen
    [(0, 2732), (2732, 5464), (5464, 8192)]
    """
    group = max(1, kernels.MIN_GEMM_COLUMNS // columns) if columns else 1
    virtual = max(1, rows // group)

    def block(lo: int, hi: int) -> None:
        fn(lo * group, rows if hi == virtual else hi * group)

    map_blocks(block, virtual, elements)


def _gemm_columns(ops, width: int) -> int:
    """Columns per ``2^width``-amplitude row of the widest of ``ops``: a
    dense op's GEMM columns, or the amplitudes per row that one entry
    of a diagonal op's factor multiplies.

    Diagonal ops count too because numpy multiplies a one-amplitude
    loop on its scalar path, whose complex product can round apart from
    its vector path's: a block of whole groups keeps every strided
    slice at two amplitudes or more, so the bits do not depend on how
    the rows were split."""
    k = max((len(op.qubits) for op in ops), default=0)
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
    ...     for lo, hi in _row_blocks(1 << (n - w), 1 << n, threads)
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

    Control extraction is a scan of a fused matrix, kept on its op
    (``FusedGate.peeled``) for the kernel, and the answer is remembered
    on the bound plan (``plan.lane_memo``) per ``strided_max``.  The
    write is idempotent — concurrent runs sharing a plan can only store
    the same tuple — so it needs no lock."""
    if strided_max < 0:
        return False
    memo = plan.lane_memo
    if memo is not None and memo[0] == strided_max:
        return memo[1]
    eligible = True
    for op in plan.ops:
        if len(op.qubits) <= strided_max:
            continue  # controls can only shrink the target count
        if len(op.peeled()[1]) > strided_max:
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
    split = _dense_split(batch, rows.size, columns) if columns else 0
    if split:

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


def _sweep_operands(plans) -> tuple:
    """Per op of ``plans`` (one part's plans for ``K`` jobs), what a
    ``dense`` or ``diag`` step multiplies by: a dense op's ``(K, d, d)``
    matrix stack, a diagonal op's contiguous ``(K, d)`` diagonals,
    without the job axis for one job.  Kept on the plans' bind
    (:class:`~repro.sv.fusion.OpStacks`) when they are its, in order
    (a benign race between threads builds an equal tuple)."""
    group = plans[0].stack[0]
    if group.jobs != len(plans) or any(
        p.stack != (group, k) for k, p in enumerate(plans)
    ):
        group = OpStacks(
            tuple(
                _stack([plan.ops[i].matrix() for plan in plans])
                for i in range(plans[0].num_ops)
            ),
            len(plans),
        )
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
    """The gathered amplitudes of ``K`` jobs (``states``): a part's row
    block, or whole states held across a run of parts.  ``cur`` holds
    them in this thread's workspace pair (:func:`_workspace`), a ``(K,
    size)`` stack, as labelled axes in ``order``, most significant
    first; ``spare`` takes the next copy or GEMM result.  :meth:`flush`
    walks ``tail``, the flush step a resident run left out of its last
    program, when the run ends.

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

    __slots__ = ("states", "cur", "spare", "order", "tail")

    def __init__(self, states: Sequence[np.ndarray] = ()) -> None:
        self.states = tuple(states)
        self.cur = self.spare = None
        self.order = self.tail = ()

    def holds(self, states: Sequence[np.ndarray]) -> bool:
        """Whether the block is ``states``, job for job."""
        return len(states) == len(self.states) and all(
            map(operator.is_, states, self.states)
        )

    def take(self, states: Sequence[np.ndarray], size: int) -> None:
        """This thread's workspace for ``states``, ``size`` amplitudes
        each (it may raise :class:`MemoryError`, holding nothing)."""
        pair = _workspace(len(states) * size)
        self.cur = pair[0][: len(states) * size]
        self.spare = pair[1][: self.cur.size]
        self.states = tuple(states)

    def flush(self) -> None:
        """Walk the left-out flush step: each job's state written back
        in natural order."""
        if self.states:
            _walk(self.tail, self, ())
        self.states = self.tail = ()
        self.cur = self.spare = None


def _walk(steps, block, operands, index=None, map_blocks=None) -> None:
    """The one loop every program runs in: ``steps`` (see
    :func:`~repro.sv.kernels._part_program`) over ``block``'s jobs.

    ``operands[i]`` is op ``i``: the :func:`_sweep_operands` of the
    jobs' plans for the workspace steps, the plan's ``FusedGate`` for
    ``strided`` and ``in_place`` (one job, on its flat state, visited by
    ``map_blocks``).  ``index`` is a row block's gather rows.  A walk
    that raises loses the block: the states keep what they held when
    it was taken."""
    states = block.states
    cur, spare = block.cur, block.spare
    jobs = len(states)
    for step in steps:
        kind = step[0]
        if kind == "dense":
            _, i, shape, perm, target, gemm = step
            if perm is not None:
                np.copyto(
                    spare.reshape(target), cur.reshape(shape).transpose(perm)
                )
                cur, spare = spare, cur
            np.matmul(operands[i], cur.reshape(gemm), out=spare.reshape(gemm))
            cur, spare = spare, cur
            continue
        if kind == "strided" or kind == "in_place":
            local = step[1]
            view = states[0].reshape(-1, 1 << local)
            columns = _gemm_columns(operands, local)
            if kind == "in_place":  # every op on a row before the next
                width = max(1, kernels.MIN_GEMM_COLUMNS // columns)
                for r in range(0, len(view), width):
                    for op in operands:
                        _apply_rows(
                            view[r : r + width], op.matrix(), op.qubits,
                            local, op.is_diagonal, map_blocks,
                        )
                continue

            def rows(lo: int, hi: int) -> None:
                sub = view[lo:hi].reshape((hi - lo,) + (2,) * local)
                for op in operands:
                    _apply_strided(
                        sub, op.matrix(), op.qubits, local, 1,
                        op.is_diagonal, op.peeled(),
                    )

            _map_row_groups(map_blocks, rows, len(view), view.size, columns)
            continue
        size = cur.size // jobs
        for k, state in enumerate(states):
            mine = cur if jobs == 1 else cur[k * size : (k + 1) * size]
            if kind == "diag":
                _, i, shape, where, row = step
                op = operands[i] if jobs == 1 else operands[i][k]
                _apply_diagonal(mine.reshape(shape), op, where, row)
            elif kind == "gather":
                # "clip": the index is in range, and the default "raise"
                # would stage the gather in a temporary before ``out``.
                out = mine.reshape(len(index), -1)
                np.take(state, index, out=out, mode="clip")
            elif kind == "load":
                mine[...] = state
            elif kind == "flush":
                _, shape, perm, home = step
                src = mine.reshape(shape)
                if perm is not None:
                    src = src.transpose(perm)
                out = state
                if index is not None:
                    out = spare[k * size : (k + 1) * size]
                np.copyto(out.reshape(home), src)
            elif kind == "scatter":
                state[index] = mine.reshape(len(index), -1)
        if kind == "flush" and index is not None:
            cur, spare = spare, cur
    block.cur, block.spare = cur, spare


def _sweep_rows(structure, states, operands, index) -> None:
    """One row block of a gathered stack: walk the ``"gather"`` program
    over rows ``index`` of every state.  A stack whose workspace cannot
    be allocated walks its jobs one at a time."""
    rows = len(index)
    steps, _ = structure.program("gather", None, rows, len(states))
    block = ResidentBlock()
    try:
        block.take(states, rows << len(structure.qubits))
    except MemoryError:
        if len(states) == 1:
            raise
        for k, state in enumerate(states):
            _sweep_rows(structure, [state], [op[k] for op in operands], index)
        return
    _walk(steps, block, operands, index)


def run_part_group(
    plans,
    states: Sequence[np.ndarray],
    num_qubits: int,
    strided_max: int,
    map_blocks: Callable[[BlockFn, int, int], None],
    resident: Optional[ResidentBlock] = None,
) -> List[str]:
    """Algorithm 1 for one part of ``K`` jobs -- the only copy; returns
    the lane each job ran (``"strided"`` or ``"gather"``).

    ``plans[k]`` (each bound for the same part) runs on ``states[k]``;
    their qubits are bits of the states' index (the circuit's qubits on
    a flat state; layout positions on a distributed one).  Each job
    takes its plan's lane (the module's lane rule).  Consecutive jobs
    that gather with one structure (one ``PartPlanStructure`` object),
    up to :func:`stack_limit` of them, form one stack; any other job is
    a stack of its own.  Each stack walks its structure's program for
    the lane (``PartPlanStructure.program``) through :func:`_walk`:

    ========== ==============================================================
    step       what it does
    ========== ==============================================================
    pad        a state narrower than ``num_qubits`` runs zero-extended to
               it (here, before the lanes), then is cut back
    strided    every op through bit-strided views of the flat state's
               leading rows: no index table, no gathered copy
    in_place   a gather row wider than the kept workspace, every op on a
               row (through :func:`_apply_rows`) before the next row
    load       whole states into the workspace (a resident run's start)
    gather     a row block of every job, by ``plan.gather_rows``, into
               the workspace: no ``2^n``-entry table too big to keep
    dense      one op: at most one transposing copy, one stacked GEMM
    diag       one op: an in-place multiply per job, in any order
    flush      each job's block back to natural order
    scatter    a row block back to its rows
    ========== ==============================================================

    A gathered stack maps ``gather ... scatter`` over the block rule's
    row blocks (``map_blocks(fn, rows, elements)``, ``elements`` one
    job's amplitude count); blocks come from one job's amplitudes, so
    each job's GEMMs keep the shape and columns they have alone, and its
    bits.  ``resident`` (a :class:`ResidentBlock`, given only where
    :func:`one_block` holds) carries a run of parts instead: a part
    whose jobs all gather in one stack walks ``load ... flush`` over
    whole states, and consecutive such parts leave out the ``flush`` /
    ``load`` pair between them; any other part first flushes the run.

    >>> from repro.circuits.generators import qaoa
    >>> from repro.sv.fusion import PlanCache
    >>> jobs = [qaoa(4, p=1, gammas=[g], betas=[0.4]) for g in (0.1, 0.2)]
    >>> plans = PlanCache().get_or_compile_group(
    ...     jobs, range(len(jobs[0])), range(4))
    >>> states = [np.zeros(16, dtype=np.complex128) for _ in jobs]
    >>> for state in states:
    ...     state[0] = 1.0
    >>> inline = lambda fn, rows, elements: fn(0, rows)
    >>> run_part_group(plans, states, 4, 2, inline)
    ['gather', 'gather']
    >>> bool((states[0] != states[1]).any())
    True
    """
    size = 1 << num_qubits
    if states[0].size < size:  # the pad step
        padded = [np.pad(state, (0, size - state.size)) for state in states]
        lanes = run_part_group(
            plans, padded, num_qubits, strided_max, map_blocks
        )
        for pad, state in zip(padded, states):
            state[:] = pad[: state.size]
        return lanes
    lanes = [
        "strided" if _strided_eligible(plan, strided_max)
        else "in_place" if 1 << len(plan.qubits) > 2 * kernels.BLOCK_ELEMENTS
        else "gather"
        for plan in plans
    ]
    limit = stack_limit(num_qubits)
    first = 0
    while first < len(plans):
        lane, structure = lanes[first], plans[first].structure
        last = first + 1
        while (
            last < len(plans) and last - first < limit and lane == "gather"
            and lanes[last] == lane and plans[last].structure is structure
        ):
            last += 1
        stack, group = plans[first:last], states[first:last]
        first = last
        whole = lane == "gather" and len(stack) == len(plans)
        held = resident if whole else None
        if resident is not None and not whole:
            resident.flush()
        if lane != "gather":
            steps, _ = structure.program(lane)
            _walk(steps, ResidentBlock(group), stack[0].ops, None, map_blocks)
            continue
        operands = _sweep_operands(stack)
        if held is not None:
            if held.holds(group):
                steps, end = structure.program(
                    "resident", held.order, 1, len(group)
                )
            else:
                held.flush()
                natural = tuple(range(num_qubits - 1, -1, -1))
                steps, end = structure.program("load", natural, 1, len(group))
                try:
                    held.take(group, size)
                except MemoryError:
                    steps = None  # the part runs as if nothing were held
            if steps is not None:
                _walk(steps[:-1], held, operands)
                held.order, held.tail = end, steps[-1:]
                continue
        gather_rows = structure.gather_rows(num_qubits)
        w = len(structure.qubits)

        def block(lo: int, hi: int) -> None:
            _sweep_rows(structure, group, operands, gather_rows(lo, hi))

        _map_row_groups(
            map_blocks, block, 1 << (num_qubits - w), size,
            _gemm_columns(stack[0].ops, w),
        )
    return ["gather" if lane == "in_place" else lane for lane in lanes]


class ExecutionBackend:
    """A block mapper plus the three entry points built on it.

    * :meth:`run_plan` — one hierarchical part (:func:`run_part_group`).
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
        for lo, hi in _row_blocks(rows, elements, 1):
            fn(lo, hi)

    # -- work --------------------------------------------------------------

    def run_plan(self, plan, state: np.ndarray, num_qubits: int) -> str:
        """:func:`run_part_group` for one job: ``plan`` on ``state``;
        returns the lane that ran (``"strided"`` for the gather-free
        fast lane, ``"gather"`` for the gather-matrix sweep).

        >>> from repro.circuits.circuit import QuantumCircuit
        >>> from repro.sv.fusion import compile_part
        >>> plan = compile_part(QuantumCircuit(2).x(0).cx(0, 1), [0, 1],
        ...                     [0, 1])
        >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
        >>> SerialBackend().run_plan(plan, state, 2), state.real.tolist()
        ('strided', [0.0, 0.0, 0.0, 1.0])
        >>> gathered = SerialBackend(strided_max=-1)
        >>> gathered.run_plan(plan, state, 2), state.real.tolist()
        ('gather', [0.0, 0.0, 1.0, 0.0])
        """
        (lane,) = run_part_group(
            [plan], [state], num_qubits, self.strided_max, self.map_blocks
        )
        return lane

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
        check_operands(gate.qubits, num_qubits)
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
        blocks = _row_blocks(rows, elements, self.threads)
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
