"""Pluggable execution backends: where kernel sweeps actually run.

The paper's Algorithm 1 is one loop — per part: gather the inner
vectors, run the part's gates, scatter — and this module holds exactly
one copy of it, :func:`run_part`.  Every unit of work it produces is a
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
else.  The three entry points — :meth:`~ExecutionBackend.run_plan` (one
hierarchical part), :meth:`~ExecutionBackend.apply_matrix_rows` (one
unitary over the distributed engines' shard matrix) and
:meth:`~ExecutionBackend.apply_gate_flat` (one gate of the flat
simulator) — are base-class methods over that mapper, and the
hierarchical executor calls no other hook.

**The lane rule** (stated here once; ``docs/backends.md`` elaborates):
a part whose fused ops all have at most ``DEFAULT_STRIDED_MAX`` (2)
target qubits after control extraction skips the gather
matrix and applies each op to the flat state through bit-strided views,
cutting a single-op part's memory traffic ~3x.  Both lanes reduce to
GEMMs of identical shape, so they are bit-identical within a backend.
The decision is made in :func:`run_part` only and remembered on the
bound plan; ``run_plan`` reports the lane (``"strided"`` / ``"gather"``)
and the executor's ``ExecutionTrace`` tallies the counts.

Backends are selected per executor (``backend="threaded"``), from the
CLI (``repro simulate --backend threaded --threads 4``) or globally via
the environment (``REPRO_BACKEND`` / ``REPRO_THREADS``).  A state below
half of ``BLOCK_ELEMENTS`` is one block on every backend, so parallel
dispatch overhead never taxes toy problems.
"""

from __future__ import annotations

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
    _apply_strided,
    apply_matrix,
    apply_matrix_batched,
    check_operands,
    split_controls,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "BACKEND_NAMES",
    "get_backend",
    "shared_backend",
    "resolve_backend",
    "run_part",
    "split_blocks",
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


# ---------------------------------------------------------------------------
# The part-sweep core
# ---------------------------------------------------------------------------


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


def run_part(
    plan,
    state: np.ndarray,
    num_qubits: int,
    mode: str,
    strided_max: int,
    map_blocks: Callable[[BlockFn, int, int], None],
) -> str:
    """Algorithm 1 for one part — the only copy; returns the lane that ran.

    Decides the kernel lane (:func:`_strided_eligible`), builds the
    per-row-range body for it, and hands that body to ``map_blocks(fn,
    rows, elements)``, which visits ``range(rows)`` in the block rule's
    blocks (``elements`` is the amplitude count they are sized from).
    Three bodies exist:

    * ``"strided"`` — ops carry *global* qubit labels and touch only
      qubits below some axis, so the flat state splits into independent
      leading rows and each op lands on them through bit-strided views:
      no index table, no gathered copy;
    * ``"gather"``, ``mode="batched"`` — gather the rows' inner vectors
      into a matrix, sweep every op over it, scatter back;
    * ``"gather"``, ``mode="literal"`` — the paper's loop, one inner
      state vector at a time (validation reference; never strided).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.sv.fusion import compile_part
    >>> qc = QuantumCircuit(2).x(0).cx(0, 1)
    >>> plan = compile_part(qc, [0, 1], [0, 1])
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> inline = lambda fn, rows, elements: fn(0, rows)
    >>> run_part(plan, state, 2, "batched", 2, inline)
    'strided'
    >>> state.real.tolist()
    [0.0, 0.0, 0.0, 1.0]
    >>> run_part(plan, state, 2, "literal", 2, inline)   # never strided
    'gather'
    >>> state.real.tolist()
    [0.0, 0.0, 1.0, 0.0]
    """
    if mode == "batched" and _strided_eligible(plan, strided_max):
        if plan.ops:
            local = 1 + max(q for op in plan.ops for q in op.qubits)
            view = state.reshape(-1, 1 << local)

            def block(lo: int, hi: int) -> None:
                sub = view[lo:hi].reshape((hi - lo,) + (2,) * local)
                for op in plan.ops:
                    _apply_strided(
                        sub, op.matrix(), op.qubits, local, 1, op.is_diagonal
                    )

            map_blocks(block, view.shape[0], state.size)
        return "strided"
    w = len(plan.qubits)
    ops = plan.local_ops()
    table = plan.gather_table(num_qubits)
    if mode == "batched":

        def block(lo: int, hi: int) -> None:
            sub = table[lo:hi]
            inner = state[sub]  # (hi - lo, 2^w) copy
            for op in ops:
                apply_matrix_batched(
                    inner, op.matrix(), op.qubits, w, diagonal=op.is_diagonal
                )
            state[sub] = inner

    else:

        def block(lo: int, hi: int) -> None:
            for t in range(lo, hi):
                in_sv = state[table[t]].copy()
                for op in ops:
                    apply_matrix(
                        in_sv, op.matrix(), op.qubits, w,
                        diagonal=op.is_diagonal,
                    )
                state[table[t]] = in_sv

    map_blocks(block, table.shape[0], table.size)
    return "gather"


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

    def run_plan(
        self,
        plan,
        state: np.ndarray,
        num_qubits: int,
        mode: str = "batched",
    ) -> str:
        """Execute one part plan; returns the kernel path that ran
        (``"strided"`` for the gather-free fast lane, ``"gather"`` for
        the gather-matrix sweep)."""
        return run_part(
            plan, state, num_qubits, mode, self.strided_max, self.map_blocks
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
        in place); ``positions`` are row-local qubit indices.

        A diagonal op is one in-place multiply per row block.  A dense
        op runs over the block rule's virtual rows: a row wider than a
        block splits, one GEMM per virtual row, so a single shard row
        still spreads over threads; rows of fewer than
        ``MIN_GEMM_COLUMNS`` columns group.  Either way every GEMM
        column is computed as in one GEMM over all rows, so the bits do
        not depend on the thread count."""
        if rows.ndim != 2 or rows.shape[1] != 1 << num_local:
            raise ValueError(f"rows must be (B, {1 << num_local})")
        check_operands(positions, num_local)
        batch = rows.shape[0]
        # A diagonal op makes no copy and runs no GEMM: its rows stay whole.
        columns = None if diagonal else 1 << (num_local - len(positions))
        split, blocks = _row_blocks(batch, rows.size, 1, columns)
        virtual = blocks[-1][1]  # the blocks end at the virtual row count
        if split > 0:

            def block(lo: int, hi: int) -> None:
                _apply_dense_split(
                    rows, matrix, positions, num_local, split, lo, hi
                )

        else:
            group = 1 << -split

            def block(lo: int, hi: int) -> None:
                stop = batch if hi == virtual else hi * group
                apply_matrix_batched(
                    rows[lo * group:stop], matrix, positions, num_local,
                    diagonal=diagonal,
                )

        self.map_blocks(block, virtual, rows.size)

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
