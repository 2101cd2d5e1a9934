"""Part-level gate fusion and compiled execution plans.

The paper treats acyclic partitioning as "orthogonal and complementary"
to gate fusion (Sec. II-C); this module supplies the complementary half.
A part's (already ordered) gate list is greedily grouped into maximal
``<= max_fused_qubits`` unitaries, each group's product matrix is built
once, and the result is kept in a :class:`CompiledPartPlan` so a part
that executes repeatedly — parameter sweeps, distributed shards,
benchmark reruns — pays matrix construction a single time.

Grouping is dependency-respecting by construction: gate ``g`` may only
join a group at or after the last group touching any of ``g``'s qubits,
so any pair of gates whose relative order changes acts on disjoint
qubits and commutes.

**What "diagonal" means.**  A group is ``diagonal`` when its *product*
is a diagonal matrix for every value of its members' parameters — not
when every member happens to be called diagonal.  Circuits arrive in the
OpenQASM basis, where a controlled phase is ``u1·cx·u1·cx·u1``: one
``cx`` in the group, and yet ``cx·diag·cx`` is diagonal whatever the
angles.  Gate names still suffice to decide it: a diagonal gate is
``diag(d)`` and a ``gate_permutation`` gate (``x``, ``cx``, ``ccx``,
``swap``, ``cswap``) a 0/1 permutation ``P``, so a product of such
members is ``diag(d') @ P'`` with ``P'`` the composition of the members'
index permutations — parameters only move the phases ``d'``, never
``P'`` — and it is diagonal exactly when ``P'`` is the identity
(:func:`_permutations_cancel`, once per group when the structure is
planned).  A group with any other member is called dense without a
look: no bound matrix is ever scanned.  Diagonal groups take the
copy-free broadcast kernel (one multiply per amplitude, no transposing
copy, no GEMM, no temporaries) on every route that reads
``FusedGate.diagonal``, and the cost model charges them as such.
Grouping has its own, narrower rule and keeps it: a group may grow to
``max_diag_qubits`` only while every *member* is a diagonal gate
(diagonal products cost one multiply per amplitude regardless of
arity, so wider diagonal fusion is pure win).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate, gate_permutation, shared_gate_matrix
from ..config import DEFAULT_MAX_FUSED_QUBITS
from .kernels import _gathered_sweep_plan, split_controls
from .layout import (
    extract_bits,
    gather_index_factors,
    gather_index_table,
    spread_bits,
)

__all__ = [
    "FusedGate",
    "FusionGroup",
    "plan_fusion_groups",
    "PartPlanStructure",
    "build_part_structure",
    "CompiledPartPlan",
    "OpStacks",
    "OnceCache",
    "PlanCache",
    "CacheCounters",
    "compile_part",
    "compile_partition",
    "DEFAULT_MAX_FUSED_QUBITS",
]

#: All-diagonal groups may exceed the dense limit by this many qubits.
DIAGONAL_BONUS_QUBITS = 2

#: The axis label of a row block's gather row in
#: :meth:`PartPlanStructure.sweep_plan`; every other axis is a qubit.
ROW = -1


def axis_sizes(order: Sequence[int], rows: int) -> Dict[int, int]:
    """The length of each axis of ``order``: ``rows`` for :data:`ROW`,
    2 for a qubit.

    >>> axis_sizes((ROW, 3, 1), 4)
    {-1: 4, 3: 2, 1: 2}
    """
    return {a: rows if a == ROW else 2 for a in order}


@dataclass(frozen=True)
class FusionGroup:
    """One fusion group: member positions (in the source gate list, in
    original order), the union working set in first-seen operand order,
    and whether the members' product is diagonal for every parameter
    value (see the module docstring).

    >>> FusionGroup(members=(0, 2), qubits=(1, 3), diagonal=False).qubits
    (1, 3)
    """

    members: Tuple[int, ...]
    qubits: Tuple[int, ...]
    diagonal: bool


def plan_fusion_groups(
    gates: Sequence[Gate],
    max_fused_qubits: int,
    max_diag_qubits: Optional[int] = None,
) -> List[FusionGroup]:
    """Greedily group a gate list into fusable chunks (no matrices built).

    First-fit from the earliest dependency-legal group: gate ``g`` may be
    placed in any group at or after the last group that touches one of
    ``g``'s qubits.  Groups are emitted in creation order with members in
    source order, which reproduces the original gate order up to swaps of
    disjoint (hence commuting) gates.  A finished group is ``diagonal``
    when all its members are diagonal gates, or diagonal and permutation
    gates whose permutations cancel.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).h(2)
    >>> [g.members for g in plan_fusion_groups(qc.gates, 2)]  # h(2) overflows
    [(0, 1), (2,)]
    >>> ladder = QuantumCircuit(2).cx(0, 1).rz(0.3, 1).cx(0, 1)
    >>> [g.diagonal for g in plan_fusion_groups(ladder.gates, 2)]
    [True]
    """
    if max_fused_qubits < 1:
        raise ValueError("max_fused_qubits must be >= 1")
    if max_diag_qubits is None:
        max_diag_qubits = max_fused_qubits + DIAGONAL_BONUS_QUBITS
    if max_diag_qubits < max_fused_qubits:
        raise ValueError("max_diag_qubits must be >= max_fused_qubits")

    members: List[List[int]] = []
    qubit_order: List[List[int]] = []  # first-seen operand order per group
    qubit_sets: List[set] = []
    all_diag: List[bool] = []
    monomial: List[bool] = []  # every member diagonal or a permutation
    last_group_of: Dict[int, int] = {}

    for i, g in enumerate(gates):
        # Gate g may join the group holding its latest same-qubit
        # predecessor (members stay in source order) or any later group,
        # but never an earlier one.
        earliest = 0
        for q in g.qubits:
            earliest = max(earliest, last_group_of.get(q, 0))
        placed = -1
        for j in range(earliest, len(members)):
            union = qubit_sets[j] | set(g.qubits)
            limit = (
                max_diag_qubits
                if (all_diag[j] and g.is_diagonal)
                else max_fused_qubits
            )
            if len(union) <= limit:
                placed = j
                break
        if placed < 0:
            members.append([])
            qubit_order.append([])
            qubit_sets.append(set())
            all_diag.append(True)
            monomial.append(True)
            placed = len(members) - 1
        members[placed].append(i)
        for q in g.qubits:
            if q not in qubit_sets[placed]:
                qubit_sets[placed].add(q)
                qubit_order[placed].append(q)
            last_group_of[q] = placed
        all_diag[placed] = all_diag[placed] and g.is_diagonal
        monomial[placed] = monomial[placed] and (
            g.is_diagonal or gate_permutation(g.name) is not None
        )

    return [
        FusionGroup(
            tuple(m),
            tuple(qs),
            d or (mono and _permutations_cancel(gates, m, qs)),
        )
        for m, qs, d, mono in zip(members, qubit_order, all_diag, monomial)
    ]


class FusedGate:
    """A fused unitary over a small qubit tuple.

    Duck-type compatible with :class:`~repro.circuits.gates.Gate` where the
    executors and the cost model need it: ``qubits``, ``num_qubits``,
    ``is_diagonal`` and ``matrix()``.  The matrix is built once and shared
    read-only; ``matrix()`` intentionally does *not* copy.

    >>> import numpy as np
    >>> fg = FusedGate((2, 5), np.eye(4, dtype=np.complex128), False)
    >>> fg.num_qubits, fg.is_diagonal
    (2, False)
    >>> fg.remap({2: 0, 5: 1}).qubits
    (0, 1)
    """

    __slots__ = ("qubits", "diagonal", "_matrix", "_peeled")

    def __init__(
        self,
        qubits: Tuple[int, ...],
        matrix: np.ndarray,
        diagonal: bool,
    ) -> None:
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError(
                f"fused matrix shape {matrix.shape} does not match "
                f"{k} qubits"
            )
        self.qubits = tuple(qubits)
        self.diagonal = bool(diagonal)
        matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        matrix.setflags(write=False)
        self._matrix = matrix
        self._peeled: Optional[tuple] = None

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_diagonal(self) -> bool:
        return self.diagonal

    def matrix(self) -> np.ndarray:
        """The fused unitary (shared, read-only — do not mutate)."""
        return self._matrix

    def peeled(self) -> Tuple[Tuple[int, ...], Tuple[int, ...], np.ndarray]:
        """:func:`~repro.sv.kernels.split_controls` of this op, peeled on
        first use (the strided lane's rule and kernel both read it; a
        benign race between threads peels twice)."""
        if self._peeled is None:
            self._peeled = split_controls(self._matrix, self.qubits)
        return self._peeled

    def remap(self, mapping: Dict[int, int]) -> "FusedGate":
        """Rename operands through ``mapping``; the matrix is shared."""
        out = FusedGate.__new__(FusedGate)
        out.qubits = tuple(mapping[q] for q in self.qubits)
        out.diagonal = self.diagonal
        out._matrix = self._matrix
        out._peeled = None
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "diag" if self.diagonal else "dense"
        return f"FusedGate({tag}, qubits={list(self.qubits)})"


@lru_cache(maxsize=1024)
def _index_table(width: int, positions: Tuple[int, ...], kind) -> np.ndarray:
    """Where a member with operands at bit ``positions`` of a
    ``width``-qubit group acts (shared, read-only; memoised by key, so a
    part of any length holds a few dozen of these, not one per gate).
    ``kind="diag"``: ``table[i]`` is the entry of the member's diagonal
    that scales group index ``i``.  ``kind`` a ``gate_permutation``:
    ``table[i]`` is the row that moves to row ``i``.  ``kind="dense"``:
    ``table[0]`` lists the group indices operand-value-major, so the
    member is one ``2^m``-row GEMM on the rows taken in that order, and
    ``table[1]``, the inverse permutation, puts them back."""
    idx = np.arange(1 << width, dtype=np.int64)
    local = extract_bits(idx, positions)
    if kind == "diag":
        table = local
    elif kind == "dense":
        rest = [b for b in range(width) if b not in positions]
        order = (local << len(rest)) | extract_bits(idx, rest)
        table = np.stack([np.argsort(order), order])
    else:
        table = idx ^ spread_bits(local ^ np.array(kind)[local], positions)
    table.setflags(write=False)
    return table


def _permutations_cancel(
    gates: Sequence[Gate], members: Sequence[int], qubits: Sequence[int]
) -> bool:
    """True when the permutation members of a group over ``qubits``
    compose to the identity on its ``2^k`` indices — asked only of a
    group whose members are all diagonal or ``gate_permutation`` gates,
    whose product is then diagonal whatever the parameters.  The row
    tables are the ones :func:`_fuse` reorders with, in the same order."""
    pos = {q: i for i, q in enumerate(qubits)}
    perm = None  # None = identity
    for m in members:
        g = gates[m]
        if g.is_diagonal:
            continue
        table = _index_table(
            len(qubits),
            tuple(pos[q] for q in g.qubits),
            gate_permutation(g.name),
        )
        perm = table if perm is None else perm.take(table)
    return perm is None or bool((perm == np.arange(perm.size)).all())


def _bind_program(groups: Sequence[FusionGroup], gates: Sequence[Gate]):
    """Per group, its members as ``(gate index, name, qubits, kind, index
    table)`` — everything :meth:`PartPlanStructure.bind` needs that gate
    parameters cannot change.  ``table`` is ``None`` for a member that is
    its whole group: its matrix is the group's, as is.  A member outside
    its group's qubits, or a dense one in a diagonal group (diagonal and
    permutation members both belong there), is a ``ValueError``."""
    program = []
    for grp in groups:
        width = len(grp.qubits)
        pos = {q: i for i, q in enumerate(grp.qubits)}
        steps = []
        for m in grp.members:
            g = gates[m]
            kind = "diag" if g.is_diagonal else (
                gate_permutation(g.name) or "dense"
            )
            if not set(g.qubits) <= pos.keys() or (
                grp.diagonal and kind == "dense"
            ):
                raise ValueError(
                    f"gate {m} ({g.name} on {g.qubits}) does not belong "
                    f"to its fusion group over {grp.qubits}"
                )
            table = None
            if len(grp.members) > 1 or g.qubits != grp.qubits:
                table = _index_table(
                    width, tuple(pos[q] for q in g.qubits), kind
                )
            steps.append((m, g.name, g.qubits, kind, table))
        program.append(tuple(steps))
    return tuple(program)


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``arrays`` stacked on a new leading axis; one array is viewed, not
    copied."""
    if len(arrays) == 1:
        return arrays[0][None]
    return np.stack(arrays)


def _fuse(
    steps, params: Sequence[Tuple[tuple, ...]], jobs: int, operands: dict
) -> np.ndarray:
    """Product matrices of one group for ``jobs`` structurally identical
    gate lists, as one ``(K, 2^w, 2^w)`` stack (first operand = least
    significant bit of the local index, the Gate convention), kept as
    ``diag(pending) @ acc`` per job: a run of diagonal members only
    touches the ``(K, 2^w)`` stack ``pending``, a permutation member
    only reorders rows, a dense member is one stacked GEMM.
    ``params[m]`` holds source gate ``m``'s parameters in each list (the
    lists were checked against the structure's names and operands by
    :meth:`PartPlanStructure.bind`); ``operands`` memoises the stacked
    ``(name, params across K)`` matrices (diagonal gates: their
    diagonals) already built for this part.  Each job's slice takes the
    operations the one-job product takes, elementwise or one GEMM per
    job, so its bits do not depend on ``K``."""
    acc = pending = None  # None = identity
    for m, name, _, kind, table in steps:
        if table is None:
            return _stack([shared_gate_matrix(name, p) for p in params[m]])
        if kind == "diag" or kind == "dense":  # a permutation has no params
            key = (name, params[m])
            mat = operands.get(key)
            if mat is None:
                mat = [shared_gate_matrix(name, p) for p in params[m]]
                if kind == "diag":
                    mat = [d.diagonal() for d in mat]
                mat = operands[key] = _stack(mat)
        if kind == "diag":
            if pending is None:
                pending = mat.take(table, axis=1)
            else:
                pending *= mat.take(table, axis=1)
            continue
        if acc is None:
            acc = _stack(
                [np.identity(table.shape[-1], dtype=np.complex128)] * jobs
            )
        if kind == "dense":
            if pending is not None:
                acc *= pending[:, :, None]
                pending = None
            rows = acc.take(table[0], axis=1).reshape(jobs, mat.shape[1], -1)
            acc = (mat @ rows).reshape(acc.shape).take(table[1], axis=1)
        else:
            # P @ diag(d) @ M = diag(d[src]) @ (P @ M): nothing to multiply.
            acc = acc.take(table, axis=1)
            if pending is not None:
                pending = pending.take(table, axis=1)
    if acc is None:
        d = pending.shape[1]
        acc = np.zeros((jobs, d, d), dtype=np.complex128)
        acc.reshape(jobs, -1)[:, :: d + 1] = pending
        return acc
    if pending is not None:
        acc *= pending[:, :, None]
    return acc


#: Gather tables above this many int64 elements (2 MB) are not retained
#: — plans live in long-lived caches, and an O(2^n) table pinned per
#: part would dwarf the fused matrices — and a run never builds them
#: whole (``PartPlanStructure.gather_rows``).
_TABLE_CACHE_MAX_ELEMENTS = 1 << 18


class PartPlanStructure:
    """The parameter-independent half of a compiled part plan.

    Everything about a part's execution that does **not** depend on gate
    parameters lives here: the fusion grouping, each group's kernel
    class (``FusionGroup.diagonal``), the bind program, the working-set
    qubit tuple, the (memoised) Algorithm-1 gather table and the axis
    orders a gathered block is swept in.  All of it
    only consults gate *names* and operands — whether a group's product
    is diagonal follows from which members are diagonal gates and which
    are permutations that cancel, never from an angle or a bound matrix
    — so two circuits that differ only in parameters (a QAOA angle
    sweep) share one structure, and the kernel every op runs on is
    decided once, when the structure is planned, not per bind or per
    run.

    :meth:`bind` attaches concrete matrices for ``K`` gate lists at once,
    producing one :class:`CompiledPartPlan` per list, each sharing this
    structure's gather-table memo.  That split is what lets the serving
    runtime (:mod:`repro.serve`) compile a parameter sweep's structure
    once; a group of jobs then pays one pass over the bind program: per
    source gate a look-up into a running diagonal stack, a row reorder
    or one stacked ``2^m``-row GEMM — microseconds each, for all ``K``.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc1 = QuantumCircuit(2).rz(0.1, 0).cx(0, 1)
    >>> qc2 = QuantumCircuit(2).rz(0.9, 0).cx(0, 1)   # same structure
    >>> s = build_part_structure(qc1, [0, 1], [0, 1])
    >>> plan1, plan2 = s.bind([qc1.gates, qc2.gates])
    >>> (plan1.num_ops, plan2.num_ops)
    (1, 1)
    >>> bool((plan1.ops[0].matrix() != plan2.ops[0].matrix()).any())
    True
    """

    __slots__ = (
        "qubits", "groups", "num_source_gates", "_table", "_sweeps",
        "_program",
    )

    def __init__(
        self,
        qubits: Tuple[int, ...],
        groups: Tuple[FusionGroup, ...],
        gates: Sequence[Gate],
    ) -> None:
        self.qubits = tuple(qubits)
        self.groups = tuple(groups)
        self.num_source_gates = len(gates)
        self._table: Optional[Tuple[int, np.ndarray]] = None
        self._sweeps: Dict[tuple, tuple] = {}
        self._program = _bind_program(self.groups, gates)

    @property
    def num_ops(self) -> int:
        return len(self.groups)

    def gather_table(self, num_qubits: int) -> np.ndarray:
        """Algorithm-1 gather table for this working set (small ones cached).

        The memo is shared by every plan bound from this structure — a
        benign race between threads recomputes an identical array.
        """
        if self._table is not None and self._table[0] == num_qubits:
            return self._table[1]
        table = gather_index_table(num_qubits, self.qubits)
        if table.size <= _TABLE_CACHE_MAX_ELEMENTS:
            self._table = (num_qubits, table)
        return table

    def gather_rows(self, num_qubits: int) -> Callable[[int, int], np.ndarray]:
        """``rows(lo, hi)``: rows ``[lo, hi)`` of :meth:`gather_table`.

        A table small enough to memoise is sliced.  A bigger one is never
        built: each call adds its two factors
        (:func:`~repro.sv.layout.gather_index_factors`), so a run holds
        one block's indices at a time, not ``2^n`` of them.
        """
        if 1 << num_qubits <= _TABLE_CACHE_MAX_ELEMENTS:
            table = self.gather_table(num_qubits)
            return lambda lo, hi: table[lo:hi]
        t_vals, j_vals = gather_index_factors(num_qubits, self.qubits)
        return lambda lo, hi: t_vals[lo:hi, None] + j_vals

    def sweep_plan(
        self, start: Tuple[int, ...], rows: int = 1, jobs: int = 1
    ) -> Tuple[tuple, Tuple[int, ...]]:
        """How a gathered block runs this part's ops: ``(steps, end)``
        from :func:`repro.sv.kernels._gathered_sweep_plan`.

        The block's axes are labels: qubits, each 2 long, and
        :data:`ROW`, ``rows`` long, for a row block's gather row.  It
        arrives in order ``start`` and ``end`` is the order the sweep
        leaves it in.  Every GEMM takes the shape and columns it has in
        the part's natural order — the labels outside the part (most
        significant first), then the part's qubits, most significant
        first — which is how a copy-GEMM-write-back sweep holds it:

        * a part's row block (:meth:`repro.sv.backend.ResidentBlock.gather`)
          arrives in natural order, ``(ROW,) + qubits[::-1]``;
        * a resident whole state
          (:meth:`~repro.sv.backend.ResidentBlock.load`) has one axis
          per qubit and arrives in the order the previous part left it.

        For ``jobs > 1`` every dense step's shapes and transpositions are
        lifted over a leading axis of ``jobs`` (the stacked sweep of
        :func:`repro.sv.backend.run_part_group` moves each job's block
        alike; diagonal steps stay one job's).

        Kept per ``(start, rows, jobs)`` and shared by every plan bound
        from this structure — a benign race between threads recomputes
        an identical tuple.

        >>> from repro.circuits.circuit import QuantumCircuit
        >>> qc = QuantumCircuit(3).h(0).cx(0, 2)
        >>> s = build_part_structure(qc, [0, 1], [0, 2], fuse=False)
        >>> steps, end = s.sweep_plan((ROW, 2, 0), rows=2)
        >>> end             # cx's order: its operands, then the row
        (2, 0, -1)
        >>> s.sweep_plan((2, 1, 0))[1]    # the whole 3-qubit state
        (2, 0, 1)
        """
        key = (start, rows, jobs)
        sweep = self._sweeps.get(key)
        if sweep is not None:
            return sweep
        if jobs > 1:
            steps, end = self.sweep_plan(start, rows)
            lead = (jobs,)

            def lift_step(step):
                shape, perm, target, gemm = step
                if gemm is None:
                    return step  # diagonal: swept one job at a time
                if perm is not None:
                    perm = (0, *[a + 1 for a in perm])
                return lead + shape, perm, lead + target, lead + gemm

            sweep = (tuple(map(lift_step, steps)), end)
        else:
            inner = set(self.qubits)
            outer = sorted((a for a in start if a not in inner), reverse=True)
            sweep = _gathered_sweep_plan(
                axis_sizes(start, rows),
                tuple(outer) + self.qubits[::-1],
                [(grp.qubits[::-1], grp.diagonal) for grp in self.groups],
                start,
            )
        self._sweeps[key] = sweep
        return sweep

    def relabel(self, mapping: Dict[int, int]) -> "PartPlanStructure":
        """This structure with every qubit renamed through ``mapping``.

        The bind program is shared; the gather table and the sweep
        orders, whose axes are the qubits themselves, are the renamed
        working set's own.
        """
        out = PartPlanStructure.__new__(PartPlanStructure)
        out.qubits = tuple(mapping[q] for q in self.qubits)
        out.groups = tuple(
            replace(grp, qubits=tuple(mapping[q] for q in grp.qubits))
            for grp in self.groups
        )
        out.num_source_gates = self.num_source_gates
        out._table = None
        out._sweeps = {}
        out._program = self._program
        return out

    def _params(self, gates: Sequence[Gate]) -> List[tuple]:
        """``gates``' parameters, in order, once each gate is checked to
        have the name and operands the structure was planned for."""
        if len(gates) != self.num_source_gates:
            raise ValueError(
                f"structure spans {self.num_source_gates} gates, "
                f"got {len(gates)}"
            )
        params: List[tuple] = [()] * len(gates)
        for steps in self._program:
            for m, name, qubits, _, _ in steps:
                g = gates[m]
                if g.name != name or g.qubits != qubits:
                    raise ValueError(
                        f"gate {m} is {g.name} on {g.qubits}; the plan "
                        f"structure was built for {name} on {qubits}"
                    )
                params[m] = g.params
        return params

    def bind(
        self, gate_lists: Sequence[Sequence[Gate]]
    ) -> List["CompiledPartPlan"]:
        """Build fused matrices for ``K`` gate lists against this
        structure in one pass over the bind program: one plan per list.

        Each list must be structurally identical (same names and
        operands, any parameters) to the gate list the structure was
        planned from — checked gate by gate in every list on every bind,
        the first included (a group's kernel class was decided from
        those names), and ``ValueError`` names a gate that differs.
        Op ``i`` fuses the source gates ``groups[i].members``; its
        matrices for the ``K`` lists are one ``(K, d, d)`` stack, and
        plan ``k``'s ``ops[i].matrix()`` is the view ``stack[k]``, with
        the bits a bind of list ``k`` alone gives.
        """
        # Source gate m's parameters in each list, every list checked.
        params = list(zip(*map(self._params, gate_lists)))
        jobs = len(gate_lists)
        operands: dict = {}
        stacks = tuple(
            _fuse(steps, params, jobs, operands) for steps in self._program
        )
        for stack in stacks:
            stack.setflags(write=False)
        group = OpStacks(stacks, jobs)
        return [
            CompiledPartPlan(
                self,
                tuple(
                    FusedGate(grp.qubits, stack[k], grp.diagonal)
                    for grp, stack in zip(self.groups, stacks)
                ),
                (group, k),
            )
            for k in range(jobs)
        ]


def build_part_structure(
    circuit: QuantumCircuit,
    gate_indices: Sequence[int],
    inner_qubits: Sequence[int],
    *,
    fuse: bool = True,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
) -> PartPlanStructure:
    """Plan one part's fusion structure (no matrices are built).

    Fusion arity is capped by the working-set size; with ``fuse=False``
    every gate becomes its own (single-member) group so both paths
    execute through the identical plan machinery.  A gate with an
    operand outside ``inner_qubits`` is a ``ValueError`` naming it.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> s = build_part_structure(qc, [0, 1, 2], [0, 1, 2])
    >>> s.num_ops, s.num_source_gates
    (1, 3)
    >>> build_part_structure(qc, [2], [0, 1])
    Traceback (most recent call last):
        ...
    ValueError: gate 2 (cx on (1, 2)) lies outside the working set (0, 1)
    """
    gates = [circuit[g] for g in gate_indices]
    inner = set(inner_qubits)
    for i, g in zip(gate_indices, gates):
        if not inner.issuperset(g.qubits):
            raise ValueError(
                f"gate {i} ({g.name} on {g.qubits}) lies outside the "
                f"working set {tuple(inner_qubits)}"
            )
    width = len(inner_qubits)
    effective = max(1, min(max_fused_qubits, width)) if width else 1
    if fuse and len(gates) > 1:
        groups = plan_fusion_groups(
            gates,
            effective,
            min(effective + DIAGONAL_BONUS_QUBITS, max(width, 1)),
        )
    else:
        groups = [
            FusionGroup((i,), g.qubits, g.is_diagonal)
            for i, g in enumerate(gates)
        ]
    return PartPlanStructure(tuple(inner_qubits), tuple(groups), gates)


class OpStacks:
    """The fused matrices of ``jobs`` plans bound in one pass:
    ``matrices[i]`` is op ``i``'s ``(jobs, d, d)`` stack, and
    ``operands`` — filled by the first stacked sweep
    (:func:`repro.sv.backend.run_part_group`) — what such a sweep
    multiplies by.

    >>> import numpy as np
    >>> OpStacks((np.zeros((3, 2, 2)),), 3).jobs
    3
    """

    __slots__ = ("matrices", "jobs", "operands")

    def __init__(self, matrices: Tuple[np.ndarray, ...], jobs: int) -> None:
        self.matrices = matrices
        self.jobs = jobs
        self.operands: Optional[tuple] = None


class CompiledPartPlan:
    """A part's gate list compiled to fused ops, plus cached index tables.

    ``ops`` act on the labels in ``qubits``: the circuit's qubits for a
    plan from :func:`compile_part` or a :class:`PlanCache`.
    :meth:`relabel` renames both — the distributed engine runs a part at
    the positions its qubits hold after ``remap``, and :meth:`local_ops`
    is the rename to ``0..w-1`` that ops on a gathered row apply.

    Every plan is bound from a :class:`PartPlanStructure`
    (``structure``) and shares that structure's gather-table memo, so
    structurally identical circuits (parameter sweeps) never rebuild
    the ``O(2^n)`` index table.

    ``stack`` is ``(stacks, k)``: the :class:`OpStacks` of the bind that
    built this plan and its index there, so a group of plans bound
    together runs every dense op as one stacked GEMM
    (:func:`repro.sv.backend.run_part_group`).

    ``lane_memo`` belongs to the execution backends' kernel-lane rule
    (:func:`repro.sv.backend.run_part_group`): the rule scans every
    fused matrix, so its last ``(strided_max, answer)`` is kept here and
    a bound plan is classified once, not once per run.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1).rz(0.3, 1)
    >>> plan = compile_part(qc, [0, 1, 2], [0, 1])
    >>> plan.num_source_gates, plan.num_ops
    (3, 1)
    >>> plan.gather_table(2).shape        # one inner vector spans the state
    (1, 4)
    >>> moved = plan.relabel((5, 2))      # qubit 0 at 5, qubit 1 at 2
    >>> moved.qubits, moved.ops[0].qubits
    ((5, 2), (5, 2))
    >>> moved.ops[0].matrix() is plan.ops[0].matrix()
    True
    """

    __slots__ = ("structure", "ops", "stack", "lane_memo", "_relabelled")

    def __init__(
        self,
        structure: PartPlanStructure,
        ops: Tuple[FusedGate, ...],
        stack: Tuple[OpStacks, int],
    ) -> None:
        self.structure = structure
        self.ops = ops
        self.stack = stack
        self.lane_memo: Optional[Tuple[int, bool]] = None
        self._relabelled: Dict[Tuple[int, ...], "CompiledPartPlan"] = {}

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.structure.qubits

    @property
    def num_source_gates(self) -> int:
        return self.structure.num_source_gates

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def relabel(self, qubits: Sequence[int]) -> "CompiledPartPlan":
        """This plan with ``self.qubits[i]`` renamed ``qubits[i]``: the
        same fused matrices on renamed operands, memoised per tuple (a
        benign race between threads builds an equal plan twice)."""
        qubits = tuple(qubits)
        if qubits == self.qubits:
            return self
        plan = self._relabelled.get(qubits)
        if plan is None:
            mapping = dict(zip(self.qubits, qubits))
            plan = self._relabelled[qubits] = CompiledPartPlan(
                self.structure.relabel(mapping),
                tuple(op.remap(mapping) for op in self.ops),
                self.stack,
            )
        return plan

    def local_ops(self) -> Tuple[FusedGate, ...]:
        """Ops with operands renamed to inner positions (cached)."""
        return self.relabel(range(len(self.qubits))).ops

    def gather_table(self, num_qubits: int) -> np.ndarray:
        """Algorithm-1 gather table for this working set (small ones cached).

        Delegates to the structure's memo, shared by every plan bound
        from it.
        """
        return self.structure.gather_table(num_qubits)

    def gather_rows(self, num_qubits: int) -> Callable[[int, int], np.ndarray]:
        """Row blocks of :meth:`gather_table` (the structure's
        :meth:`~PartPlanStructure.gather_rows`)."""
        return self.structure.gather_rows(num_qubits)


def compile_part(
    circuit: QuantumCircuit,
    gate_indices: Sequence[int],
    inner_qubits: Sequence[int],
    *,
    fuse: bool = True,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
) -> CompiledPartPlan:
    """Compile one part's gates against working set ``inner_qubits``.

    Convenience composition of :func:`build_part_structure` and
    :meth:`PartPlanStructure.bind` for the single-circuit case.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).h(1)
    >>> compile_part(qc, [0, 1, 2], [0, 1]).num_ops
    1
    >>> compile_part(qc, [0, 1, 2], [0, 1], fuse=False).num_ops
    3
    """
    return build_part_structure(
        circuit,
        gate_indices,
        inner_qubits,
        fuse=fuse,
        max_fused_qubits=max_fused_qubits,
    ).bind([[circuit[g] for g in gate_indices]])[0]


@dataclass
class CacheCounters:
    """One caller's plan-cache events — the only place they are counted.

    A :class:`PlanCache` holds no counters: the caller that owns a run
    passes one of these to :meth:`PlanCache.get_or_compile`, so each
    run's accounting stays exact however many runs share the cache.
    Increments happen under the cache's counter lock, because the
    workers of one run share one object.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> cache, mine = PlanCache(), CacheCounters()
    >>> _ = cache.get_or_compile(qc, [0, 1], [0, 1], counters=mine)
    >>> _ = cache.get_or_compile(qc, [0, 1], [0, 1], counters=mine)
    >>> mine.hits, mine.misses
    (1, 1)
    """

    hits: int = 0
    misses: int = 0
    structure_hits: int = 0
    structure_misses: int = 0


class OnceCache:
    """Compute once per key under concurrency, keep the N most recent.

    :meth:`get` returns ``(value, was_cached)``.  A hit moves its key to
    the most-recent end.  A miss runs ``compute()`` *outside* the lock,
    so different keys compute concurrently, while callers asking for
    the key being computed wait on its event and count as hits.  A
    raising ``compute`` leaves no entry: it wakes the waiters (the next
    one computes) and re-raises.  Eviction runs after an insert, oldest
    finished entry first; a key still being computed is not an entry
    yet, so it is never evicted.

    >>> cache = OnceCache(max_entries=2)
    >>> cache.get("a", lambda: 1), cache.get("a", lambda: 2)
    ((1, False), (1, True))
    >>> _ = cache.get("b", lambda: 3), cache.get("c", lambda: 4)
    >>> len(cache), cache.get("a", lambda: 5)       # "a" was the oldest
    (2, (5, False))
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._in_flight: Dict[Hashable, threading.Event] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is a finished entry (a peek: no reordering)."""
        with self._lock:
            return key in self._entries

    def get(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    return self._entries[key], True
                gate = self._in_flight.get(key)
                if gate is None:
                    gate = self._in_flight[key] = threading.Event()
                    break
            # Another thread is computing this key: wait for it and
            # re-read (there is no entry if that thread failed).
            gate.wait()
        try:
            value = compute()
            with self._lock:
                self._entries[key] = value
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        finally:
            with self._lock:
                del self._in_flight[key]
            gate.set()
        return value, False


class PlanCache:
    """Bounded cache of :class:`CompiledPartPlan` keyed by part identity.

    :meth:`get_or_compile` is the one lookup.  Bound plans are keyed by
    ``("bound", id(circuit))`` plus the part; the entry pins the circuit
    object so the id cannot be recycled while its plans are alive.  One
    cache instance may be shared across executors (hierarchical and
    distributed) and across repeated runs — that sharing is what makes
    sweeps and shard re-execution pay matrix construction once.

    The cache is **thread-safe**: it is one :class:`OnceCache`, so a
    plan is compiled exactly once per key — concurrent callers of the
    same part wait for the one compiling thread — while different parts
    compile concurrently, outside the lock.  Compiled plans
    themselves are immutable after construction (the lazy ``relabel``
    / ``gather_table`` memos in :class:`CompiledPartPlan` are idempotent
    — a benign race recomputes an identical value), so returned plans may
    be used from any number of threads without further locking.

    A miss takes its :class:`PartPlanStructure` — fusion grouping plus
    gather tables — from a **structural** layer keyed by what the part
    computes: its gates' ordered ``(name, qubits)``, its working set as
    given, ``fuse`` and the fused width, never a parameter.  A sweep of
    ``J`` jobs of one structure over a ``P``-part partition builds at
    most ``P`` structures, one per distinct part content.
    Both layers share the one ``max_entries`` bound.  The cache holds
    no counters: events go to the caller's :class:`CacheCounters`.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> cache, seen = PlanCache(), CacheCounters()
    >>> p1 = cache.get_or_compile(qc, [0, 1], [0, 1], counters=seen)
    >>> p2 = cache.get_or_compile(qc, [0, 1], [0, 1], counters=seen)
    >>> p1 is p2, seen.hits, seen.misses                  # same part: hit
    (True, 1, 1)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self._cache = OnceCache(max_entries)
        self._count_lock = threading.Lock()

    @property
    def max_entries(self) -> int:
        return self._cache.max_entries

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()

    def _count(
        self, name: str, counters: Optional[CacheCounters]
    ) -> None:
        if counters is not None:
            with self._count_lock:
                setattr(counters, name, getattr(counters, name) + 1)

    def get_or_compile(
        self,
        circuit: QuantumCircuit,
        gate_indices: Sequence[int],
        inner_qubits: Sequence[int],
        *,
        fuse: bool = True,
        max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
        counters: Optional[CacheCounters] = None,
    ) -> CompiledPartPlan:
        """The plan of one part of ``circuit``, compiled on first use.

        The plan is memoised per circuit object, so re-running one
        circuit skips even matrix construction.  This is :meth:`get_or_compile_group` for one circuit; its
        exception, if any, is raised.
        """
        (plan,) = self.get_or_compile_group(
            [circuit],
            gate_indices,
            inner_qubits,
            fuse=fuse,
            max_fused_qubits=max_fused_qubits,
            counters=counters,
        )
        if isinstance(plan, Exception):
            raise plan
        return plan

    def get_or_compile_group(
        self,
        circuits: Sequence[QuantumCircuit],
        gate_indices: Sequence[int],
        inner_qubits: Sequence[int],
        *,
        fuse: bool = True,
        max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
        counters: Optional[CacheCounters] = None,
    ) -> List[Union[CompiledPartPlan, Exception]]:
        """One part's plans for ``K`` circuits: item ``k`` is circuit
        ``k``'s plan, or the exception its lookup raised.

        Each circuit makes the lookup :meth:`get_or_compile` describes
        and is counted as if it ran alone.  The first miss binds every
        later circuit not yet cached in one stacked pass over its
        structure (:meth:`PartPlanStructure.bind`, whose per-gate check
        admits only that content); if the pass raises, each circuit
        binds alone under its own content key, so an error stays its
        own circuit's.

        Per-job matrix construction is the part of a batched sweep that
        scales with the job count; like every :class:`OnceCache`
        computation it runs outside the lock, so concurrent workers
        binding different circuits do not serialise on the cache.

        >>> from repro.circuits.generators import qaoa
        >>> sweep = [qaoa(4, p=1, gammas=[g], betas=[0.3]) for g in (0.1, 0.2)]
        >>> cache, seen = PlanCache(), CacheCounters()
        >>> a, b = cache.get_or_compile_group(
        ...     sweep, range(len(sweep[0])), range(4), counters=seen)
        >>> a.stack[0] is b.stack[0], seen.misses, seen.structure_hits
        (True, 2, 1)
        """
        gate_indices = tuple(gate_indices)
        part = (
            gate_indices,
            tuple(inner_qubits),
            bool(fuse),
            int(max_fused_qubits),
        )
        grouped: Optional[Dict[int, CompiledPartPlan]] = None

        def gates(k: int) -> List[Gate]:
            return [circuits[k][g] for g in gate_indices]

        def bind(k: int):
            nonlocal grouped
            circuit = circuits[k]
            if grouped is not None and k in grouped:
                self._count("structure_hits", counters)
                return circuit, grouped.pop(k)
            mine = gates(k)
            # What the part computes, parameters left out.
            content = tuple((g.name, g.qubits) for g in mine)
            structure, reused = self._cache.get(
                ("struct", content) + part[1:],
                lambda: build_part_structure(
                    circuit,
                    gate_indices,
                    inner_qubits,
                    fuse=fuse,
                    max_fused_qubits=max_fused_qubits,
                ),
            )
            self._count(
                "structure_hits" if reused else "structure_misses", counters
            )
            if grouped is None:  # the group's first miss
                grouped = {}
                rest = [
                    j
                    for j in range(k + 1, len(circuits))
                    if ("bound", id(circuits[j])) + part not in self._cache
                ]
                if rest:
                    try:
                        plan, *plans = structure.bind(
                            [mine] + [gates(j) for j in rest]
                        )
                        grouped.update(zip(rest, plans))
                        return circuit, plan
                    except Exception:
                        pass  # each circuit binds alone
            (plan,) = structure.bind([mine])
            return circuit, plan

        out: List[Union[CompiledPartPlan, Exception]] = []
        for k, circuit in enumerate(circuits):
            try:
                (_, plan), cached = self._cache.get(
                    ("bound", id(circuit)) + part, lambda k=k: bind(k)
                )
            except Exception as exc:
                out.append(exc)
                continue
            self._count("hits" if cached else "misses", counters)
            out.append(plan)
        return out

    def get_or_bind(self, *args, structural_key=None, **kwargs):
        """:meth:`get_or_compile` by the name the perf harness's serve
        pipeline calls; it ignores ``structural_key`` (structures are
        keyed by content).  Delete it once the harness stops."""
        return self.get_or_compile(*args, **kwargs)


def compile_partition(
    circuit: QuantumCircuit,
    partition,
    *,
    fuse: bool = True,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
    cache: Optional[PlanCache] = None,
) -> List[CompiledPartPlan]:
    """Compile every part of a partition, in execution order, through
    ``cache`` (a fresh one when not given).

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> qc = qft(6)
    >>> partition = get_partitioner("dagP").partition(qc, 4)
    >>> plans = compile_partition(qc, partition)
    >>> len(plans) == partition.num_parts
    True
    >>> sum(p.num_ops for p in plans) < len(qc)     # fusion saved sweeps
    True
    """
    if cache is None:
        cache = PlanCache()
    return [
        cache.get_or_compile(
            circuit,
            part.gate_indices,
            part.qubits,
            fuse=fuse,
            max_fused_qubits=max_fused_qubits,
        )
        for part in partition.parts
    ]
