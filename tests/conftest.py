"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
from typing import List, Optional

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_DEFS, make_gate
from repro.sv.layout import permute_bits


# Families usable at a given small width, for parametrised suite tests.
SUITE_SMALL = [
    ("cat_state", 8),
    ("bv", 8),
    ("qaoa", 8),
    ("cc", 8),
    ("ising", 8),
    ("qft", 7),
    ("qnn", 8),
    ("grover", 9),
    ("qpe", 7),
    ("adder", 8),
]


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    max_arity: int = 3,
    gate_pool: Optional[List[str]] = None,
) -> QuantumCircuit:
    """Deterministic random circuit over the full gate vocabulary."""
    rng = random.Random(seed)
    if gate_pool is None:
        gate_pool = [
            name
            for name, d in GATE_DEFS.items()
            if d.num_qubits <= min(max_arity, num_qubits)
        ]
    qc = QuantumCircuit(num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        name = rng.choice(gate_pool)
        d = GATE_DEFS[name]
        qubits = rng.sample(range(num_qubits), d.num_qubits)
        params = tuple(rng.uniform(0, 2 * math.pi) for _ in range(d.num_params))
        qc.append(make_gate(name, qubits, params))
    return qc


class RefineReference:
    """Oracle for ``repro.partition.dagp.refine``: the refinement loop as
    first written -- every step re-scans all ``n`` nodes through
    :meth:`legal` and re-derives each candidate's cost bit position by
    bit position.  The production ``RefineState`` keeps the legal set and
    the counters incrementally and must agree move for move.
    """

    def __init__(self, sub, labels: List[int]) -> None:
        self.sub = sub
        self.labels = labels
        n = sub.num_nodes
        nq = max((m.bit_length() for m in sub.qmask), default=0)
        self.qcnt = [[0] * nq, [0] * nq]
        self.weights = [0, 0]
        self.ws = [0, 0]
        self.succ0 = [0] * n  # successors in side 0
        self.pred1 = [0] * n  # predecessors in side 1
        for v in range(n):
            s = labels[v]
            self.weights[s] += sub.weight[v]
            for q in range(nq):
                if sub.qmask[v] >> q & 1:
                    if self.qcnt[s][q] == 0:
                        self.ws[s] += 1
                    self.qcnt[s][q] += 1
        for v in range(n):
            for w in sub.succ[v]:
                if labels[w] == 0:
                    self.succ0[v] += 1
                if labels[v] == 1:
                    self.pred1[w] += 1

    def cost(self):
        return (
            max(self.ws[0], self.ws[1]),
            self.ws[0] + self.ws[1],
            abs(self.weights[0] - self.weights[1]),
        )

    def cost_after_move(self, v: int):
        """Cost if ``v`` switched sides (no mutation)."""
        s = self.labels[v]
        t = 1 - s
        ws_s, ws_t = self.ws[s], self.ws[t]
        for q in range(len(self.qcnt[0])):
            if self.sub.qmask[v] >> q & 1:
                if self.qcnt[s][q] == 1:
                    ws_s -= 1
                if self.qcnt[t][q] == 0:
                    ws_t += 1
        w_s = self.weights[s] - self.sub.weight[v]
        w_t = self.weights[t] + self.sub.weight[v]
        return (max(ws_s, ws_t), ws_s + ws_t, abs(w_s - w_t))

    def movable(self, v: int) -> bool:
        """The boundary rule alone: flipping ``v`` keeps 0 before 1."""
        return (self.pred1[v] if self.labels[v] else self.succ0[v]) == 0

    def legal(self, v: int) -> bool:
        """Movable, and the flip does not empty ``v``'s side."""
        s = self.labels[v]
        return self.weights[s] - self.sub.weight[v] > 0 and self.movable(v)

    def apply(self, v: int) -> None:
        s = self.labels[v]
        t = 1 - s
        self.labels[v] = t
        self.weights[s] -= self.sub.weight[v]
        self.weights[t] += self.sub.weight[v]
        for q in range(len(self.qcnt[0])):
            if self.sub.qmask[v] >> q & 1:
                self.qcnt[s][q] -= 1
                if self.qcnt[s][q] == 0:
                    self.ws[s] -= 1
                if self.qcnt[t][q] == 0:
                    self.ws[t] += 1
                self.qcnt[t][q] += 1
        step = 1 if s else -1  # v left side 1 / side 0
        for p in self.sub.pred[v]:
            self.succ0[p] += step
        for w in self.sub.succ[v]:
            self.pred1[w] -= step

    def best_move(self) -> Optional[int]:
        """First node, in id order, whose legal flip costs least and less
        than the current cost."""
        best_v, best_cost = None, self.cost()
        for v in range(self.sub.num_nodes):
            if self.legal(v):
                c = self.cost_after_move(v)
                if c < best_cost:
                    best_cost, best_v = c, v
        return best_v


def refine_reference(sub, labels: List[int], max_passes: int = 8) -> List[int]:
    """The reference refinement of ``labels`` on ``sub`` (mutated)."""
    state = RefineReference(sub, labels)
    for _ in range(max_passes):
        improved = False
        for _ in range(max(8, sub.num_nodes)):
            v = state.best_move()
            if v is None:
                break
            state.apply(v)
            improved = True
        if not improved:
            break
    return state.labels


def fuse_reference(steps, gates, operands: dict) -> np.ndarray:
    """Oracle for ``repro.sv.fusion._fuse``: one group's product matrix
    for one gate list, as first written -- ``diag(pending) @ acc`` over
    the bind program's steps, a ``2^m``-row GEMM per dense member.  The
    production ``_fuse`` builds a ``(K, d, d)`` stack for ``K`` gate
    lists in one pass, and each slice must agree with this byte for
    byte.  ``operands`` memoises ``(name, params)`` matrices across the
    groups of one part, as a bind does.
    """
    from repro.circuits.gates import shared_gate_matrix

    acc = pending = None  # None = identity
    for m, name, qubits, kind, table in steps:
        g = gates[m]
        if g.name != name or g.qubits != qubits:
            raise ValueError(
                f"gate {m} is {g.name} on {g.qubits}; the plan structure "
                f"was built for {name} on {qubits}"
            )
        if table is None:
            return shared_gate_matrix(name, g.params)
        key = (name, g.params)
        mat = operands.get(key)
        if mat is None:
            mat = shared_gate_matrix(name, g.params)
            if kind == "diag":
                mat = mat.diagonal()
            operands[key] = mat
        if kind == "diag":
            if pending is None:
                pending = mat.take(table)
            else:
                pending *= mat.take(table)
            continue
        if acc is None:
            acc = np.identity(table.shape[-1], dtype=np.complex128)
        if kind == "dense":
            if pending is not None:
                acc *= pending[:, None]
                pending = None
            acc = (
                (mat @ acc.take(table[0], axis=0).reshape(len(mat), -1))
                .reshape(acc.shape)
                .take(table[1], axis=0)
            )
        else:
            # P @ diag(d) @ M = diag(d[src]) @ (P @ M): nothing to multiply.
            acc = acc.take(table, axis=0)
            if pending is not None:
                pending = pending.take(table)
    if acc is None:
        return np.diag(pending)
    if pending is not None:
        acc *= pending[:, None]
    return acc


def to_dense_reference(state) -> np.ndarray:
    """Oracle for ``StabilizerState.to_dense``: the conversion as first
    written -- a Gray-code walk over the pivot Paulis' subsets, one Pauli
    multiply and one amplitude per step in Python.  The production
    doubling must agree with it bit for bit, signed zeros included.
    """
    from repro.sv.stabilizer import _I_POW

    def parity(x: int) -> int:
        return bin(x).count("1") & 1

    out = np.zeros(1 << state.num_qubits, dtype=np.complex128)
    pivots = state._pivot_paulis()
    out[state.ref_index] = state.ref_amp
    cx = cz = cr = 0
    for step in range(1, 1 << len(pivots)):
        j = (step & -step).bit_length() - 1
        px, pz, pr = pivots[j]
        cr = (cr + pr + 2 * parity(cz & px)) & 3
        cx ^= px
        cz ^= pz
        phase = (cr + 2 * parity(cz & state.ref_index)) & 3
        out[state.ref_index ^ cx] = _I_POW[phase] * state.ref_amp
    return out


def gather_sweep_reference(plan, state: np.ndarray, n: int, threads: int = 1):
    """Oracle for ``run_part``'s batched gather lane (mutates ``state``):
    the body as first written -- per block of the block rule at
    ``threads`` threads, gather ``state[table]``, run each local op
    through ``apply_matrix_batched`` (a transposing copy, a GEMM and a
    write-back every time), scatter.  The production body keeps the
    block in a workspace in the last dense op's axis order and must
    agree with it byte for byte.  Blocks hold whole groups of rows when
    a row gives the widest dense op fewer than ``MIN_GEMM_COLUMNS``
    GEMM columns, as the production blocks do.
    """
    from repro.sv.backend import _row_blocks
    from repro.sv.kernels import MIN_GEMM_COLUMNS, apply_matrix_batched

    table = plan.gather_table(n)
    w = len(plan.qubits)
    rows = table.shape[0]
    k = max(
        (len(op.qubits) for op in plan.ops if not op.is_diagonal), default=0
    )
    group = max(1, MIN_GEMM_COLUMNS >> (w - k))
    virtual = max(1, rows // group)
    for lo, hi in _row_blocks(virtual, table.size, threads)[1]:
        lo, hi = lo * group, rows if hi == virtual else hi * group
        inner = state[table[lo:hi]]
        for op in plan.local_ops():
            apply_matrix_batched(
                inner, op.matrix(), op.qubits, w, diagonal=op.is_diagonal
            )
        state[table[lo:hi]] = inner
    return state


def sweep_plan_reference(structure, rows: int, jobs: int = 1):
    """Oracle for ``PartPlanStructure.sweep_plan`` over a row block: the
    positional planner as first written -- axis 0 the gather row, axis
    ``i + 1`` the part's qubit ``w - 1 - i`` -- returning ``(steps,
    restore)``, ``restore`` being ``(shape, perm)`` back to natural
    order or ``None``.  For ``jobs > 1`` every dense step and the
    restore are lifted over a leading job axis.
    """
    from repro.sv.kernels import (
        _gate_axes,
        _gathered_sweep_plan,
        _order_perm,
        check_operands,
    )

    w = len(structure.qubits)
    pos = {q: i for i, q in enumerate(structure.qubits)}
    ops = []
    for grp in structure.groups:
        local = tuple(pos[q] for q in grp.qubits)
        check_operands(local, w)
        ops.append((tuple(_gate_axes(w + 1, w, local, 1)), grp.diagonal))
    sizes = (rows,) + (2,) * w
    natural = tuple(range(w + 1))
    steps, end = _gathered_sweep_plan(sizes, natural, ops)
    perm = _order_perm(sizes, end, natural)
    restore = None if perm is None else (tuple(sizes[a] for a in end), perm)
    if jobs == 1:
        return steps, restore

    def lift(perm):
        return None if perm is None else (0, *[a + 1 for a in perm])

    def lift_step(step):
        shape, perm, target, gemm = step
        if gemm is None:
            return step
        return (jobs,) + shape, lift(perm), (jobs,) + target, (jobs,) + gemm

    if restore is not None:
        restore = ((jobs,) + restore[0], lift(restore[1]))
    return tuple(map(lift_step, steps)), restore


def literal_reference(
    circuit,
    partition,
    state: np.ndarray,
    *,
    fuse: bool = True,
    backend=None,
    plan_cache=None,
    counters=None,
) -> np.ndarray:
    """Oracle for ``HierarchicalExecutor.run`` on a dense ``state``
    (mutated and returned): the paper's Algorithm 1 as written -- per
    part, per inner state vector (one row of the part's gather table),
    gather it, apply each of the part's ops to it with ``apply_matrix``
    and scatter it back.  Plans come from ``plan_cache`` (a fresh
    ``PlanCache`` by default) through ``get_or_compile``, whose events
    ``counters`` receives; ``backend`` (resolved as the executor
    resolves it) visits the rows in its blocks.
    """
    from repro.sv.backend import resolve_backend
    from repro.sv.fusion import PlanCache
    from repro.sv.kernels import apply_matrix

    backend = resolve_backend(backend)
    if plan_cache is None:
        plan_cache = PlanCache()
    n = circuit.num_qubits
    for part in partition.parts:
        plan = plan_cache.get_or_compile(
            circuit, part.gate_indices, part.qubits, fuse=fuse,
            counters=counters,
        )
        w = len(plan.qubits)
        table = plan.gather_table(n)
        ops = plan.local_ops()

        def block(lo, hi):
            for index in table[lo:hi]:
                inner = state[index]
                for op in ops:
                    apply_matrix(
                        inner, op.matrix(), op.qubits, w,
                        diagonal=op.is_diagonal,
                    )
                state[index] = inner

        backend.map_blocks(block, table.shape[0], state.size)
    return state


def shard_sweep_reference(
    engine, circuit, part, inner, state, local_bits, compute
):
    """Oracle for ``HiSVSimEngine._execute_part`` (same signature, with
    the engine first): the shard loop as first written -- per gate group
    (the part, or its inner parts in order), the fused plan's ops (or the
    raw gates, unfused) each charged, then applied to every rank's shard
    row through ``state.apply_gate_local``.  The production engine runs
    each group as one ``run_plan`` and must agree with it byte for byte,
    model seconds included.
    """
    from repro.dist._cost import charge_gate
    from repro.dist.state import AMP_BYTES

    gate_indices = part.gate_indices
    shard_bytes = AMP_BYTES << local_bits
    seconds = 0.0
    if inner is None or inner.num_parts <= 1:
        groups = [(gate_indices, local_bits, part.qubits)]
    else:
        groups = [
            (
                tuple(gate_indices[j] for j in ip.gate_indices),
                ip.working_set_size,
                ip.qubits,
            )
            for ip in inner.parts
        ]
    for indices, width, qubits in groups:
        if width < local_bits:
            seconds += engine.machine.memcpy_time(2 * shard_bytes)
            working_set = AMP_BYTES << width
        else:
            working_set = shard_bytes
        if engine.fuse:
            ops = engine.plan_cache.get_or_compile(
                circuit,
                indices,
                qubits,
                fuse=True,
                max_fused_qubits=min(engine.max_fused_qubits, max(width, 1)),
            ).ops
        else:
            ops = [circuit[g] for g in indices]
        for op in ops:
            seconds += charge_gate(
                engine.machine, compute, op, local_bits, working_set
            )
            if not engine.dry_run:
                state.apply_gate_local(op, backend=engine.backend)
    return seconds


def scatter_reference(shards: np.ndarray, sigma):
    """Elementwise oracle for the bit-permutation exchange ``sigma``.

    The definition every production path (transposed view in process,
    slabs over sockets, closed-form traffic) is held to: each element of
    the ``(R, local)`` shard matrix is scattered to ``permute_bits`` of
    its packed index, and traffic is counted per (src, dst) pair.
    Returns ``(new_shards, step, per_rank)``: the step is ``(total_bytes,
    total_msgs, max_bytes_per_rank, max_msgs_per_rank)`` and
    ``per_rank[r]`` is ``(sent_bytes, sent_msgs, recv_bytes, recv_msgs)``,
    rank-to-self traffic excluded from both.
    """
    R, local = shards.shape
    packed = np.arange(shards.size, dtype=np.int64)
    dest = permute_bits(packed, sigma)
    new = np.empty(shards.size, dtype=shards.dtype)
    new[dest] = shards.reshape(-1)
    pairs = (packed // local) * R + dest // local
    counts = np.bincount(pairs, minlength=R * R).reshape(R, R)
    np.fill_diagonal(counts, 0)
    nbytes = counts * shards.dtype.itemsize
    out_b, in_b = nbytes.sum(axis=1), nbytes.sum(axis=0)
    out_m, in_m = (counts > 0).sum(axis=1), (counts > 0).sum(axis=0)
    step = (
        int(nbytes.sum()),
        int((counts > 0).sum()),
        int(np.maximum(out_b, in_b).max()),
        int(np.maximum(out_m, in_m).max()),
    )
    per_rank = [
        (int(out_b[r]), int(out_m[r]), int(in_b[r]), int(in_m[r]))
        for r in range(R)
    ]
    return new.reshape(R, local), step, per_rank


def full_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a circuit via kron expansion.

    Independent of the simulator kernels (used to validate them): builds
    each gate's full-space matrix by explicit basis-state index mapping.
    """
    n = circuit.num_qubits
    dim = 1 << n
    total = np.eye(dim, dtype=np.complex128)
    for gate in circuit:
        m = gate.matrix()
        qs = gate.qubits
        k = len(qs)
        big = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            j = 0
            for i, q in enumerate(qs):
                j |= ((col >> q) & 1) << i
            rest = col
            for q in qs:
                rest &= ~(1 << q)
            for jp in range(1 << k):
                row = rest
                for i, q in enumerate(qs):
                    row |= ((jp >> i) & 1) << q
                big[row, col] = m[jp, j]
        total = big @ total
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the block rule's ``BLOCK_ELEMENTS`` to 16 amplitudes (the
    value is returned), so toy-width states cross block boundaries and
    reach the thread pool.

    Not smaller: a 16-amplitude block still gives every 1- and 2-qubit
    op's GEMM at least four columns.  With fewer, BLAS computes the last
    columns in its edge kernel, whose last bits differ from the full-width
    kernel's, and the entry points stop agreeing bitwise with each other
    (at 4 amplitudes they do, by an ulp) — a toy-size artefact: at the real
    ``BLOCK_ELEMENTS`` such an op has ``2^12`` columns or more per block.
    The block rule never splits or groups a dense op's rows below
    ``MIN_GEMM_COLUMNS`` columns, so its virtual rows stay bitwise at
    this size too.  Diagonal ops stream from 16 amplitudes on.
    """
    import repro.sv.kernels

    monkeypatch.setattr(repro.sv.kernels, "BLOCK_ELEMENTS", 16)
    return 16
