"""Wire-cut discovery over the acyclic gate partition (CutQC, Sec. 2).

A **wire cut** severs one qubit's timeline between two gates, splitting
the circuit into fragments narrow enough to simulate densely on one
host.  The key observation connecting cutting to this repository's
stack: a valid *acyclic* gate partition already induces a set of wire
cuts.  Topological part order means every qubit's timeline visits each
part in at most one contiguous run (an A-B-A return would put a cycle
in the quotient graph, which :meth:`~repro.partition.base.Partition`
rejects), so every transition of a qubit's timeline from one part to
the next is exactly one cut wire.  :func:`find_cuts` therefore reuses
the existing partitioners — partition at ``limit=max_width``, glue
parts back together with :func:`~repro.partition.merge.merge_assignment`
to drop needless boundaries, and read the cuts off the qubit
timelines.

The cost model is CutQC's: ``k`` cuts cost ``16^k`` logical variant
terms (4 measurement bases x 4 preparation states per cut), each
fragment runs as a ``<= max_width``-qubit dense simulation.  Cutting
trades exponential classical post-processing in ``k`` for exponential
memory in the uncut width — worth it exactly when the circuit is wider
than memory and a low-``k`` cut exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..dag import GateGraph
from ..partition import get_partitioner
from ..partition.base import Partition, PartitionError
from ..partition.merge import merge_assignment

__all__ = [
    "CutError",
    "WireCut",
    "CutFragment",
    "CutPlan",
    "find_cuts",
    "plan_from_assignment",
    "plan_from_partition",
]


class CutError(ValueError):
    """Raised when a circuit cannot be cut as requested.

    >>> issubclass(CutError, ValueError)
    True
    """


@dataclass(frozen=True)
class WireCut:
    """One severed wire: qubit ``qubit`` between two gates.

    ``gate_before`` is the last gate touching the qubit in the upstream
    fragment, ``gate_after`` the first in the downstream fragment (both
    original circuit indices).  The upstream fragment measures the wire
    (``out``); the downstream fragment prepares it (``in``).

    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> cut = plan_from_assignment(qc, [0, 0, 1], max_width=2).cuts[0]
    >>> (cut.qubit, cut.gate_before, cut.gate_after)
    (1, 1, 2)
    """

    cut_id: int
    qubit: int
    gate_before: int
    gate_after: int
    from_fragment: int
    to_fragment: int


@dataclass(frozen=True)
class CutFragment:
    """One subcircuit of a :class:`CutPlan`.

    ``qubits`` is the working set (global labels); ``in_cuts`` /
    ``out_cuts`` are the cut ids prepared / measured here, and
    ``terminal_qubits`` the global qubits whose *final* wire value lives
    in this fragment (the uncut output bits it owns).

    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> frag = plan_from_assignment(qc, [0, 0, 1], max_width=2).fragments[1]
    >>> (frag.qubits, frag.in_cuts, frag.terminal_qubits, frag.width)
    ((1, 2), (0,), (1, 2), 2)
    """

    index: int
    gate_indices: Tuple[int, ...]
    qubits: Tuple[int, ...]
    in_cuts: Tuple[int, ...]
    out_cuts: Tuple[int, ...]
    terminal_qubits: Tuple[int, ...]

    @property
    def width(self) -> int:
        """Dense simulation width of this fragment."""
        return len(self.qubits)


@dataclass(frozen=True)
class CutPlan:
    """A validated wire-cutting of one circuit.

    Fragments appear in a topological order (every cut goes from a
    lower fragment index to a higher one), so evaluating them in order
    respects all dependencies.

    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> plan = plan_from_assignment(qc, [0, 0, 1], max_width=2)
    >>> plan.summary()
    '2 fragments (widths 2/2) via 1 cuts [manual]: 16^1 = 16 logical variants'
    """

    circuit: QuantumCircuit
    fragments: Tuple[CutFragment, ...]
    cuts: Tuple[WireCut, ...]
    max_width: int
    strategy: str

    @property
    def num_cuts(self) -> int:
        return len(self.cuts)

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    @property
    def widths(self) -> Tuple[int, ...]:
        """Per-fragment dense simulation widths."""
        return tuple(f.width for f in self.fragments)

    @property
    def num_variants(self) -> int:
        """CutQC's logical recombination cost: ``16^k`` terms.

        Four measurement bases times four preparation states per cut —
        the classical post-processing budget the plan commits to.
        """
        return 16 ** self.num_cuts

    def validate(self) -> None:
        """Check plan invariants; raise :class:`CutError` on violation.

        Every gate in exactly one fragment, every fragment within
        ``max_width``, every cut pointing forward (acyclic quotient),
        and every qubit timeline contiguous per fragment.
        """
        seen: Dict[int, int] = {}
        for f in self.fragments:
            if f.width > self.max_width:
                raise CutError(
                    f"fragment {f.index} width {f.width} exceeds "
                    f"max_width {self.max_width}"
                )
            for g in f.gate_indices:
                if g in seen:
                    raise CutError(f"gate {g} in fragments {seen[g]} and {f.index}")
                seen[g] = f.index
        if len(seen) != len(self.circuit):
            raise CutError(
                f"{len(self.circuit) - len(seen)} gates missing from the plan"
            )
        for c in self.cuts:
            if not c.from_fragment < c.to_fragment:
                raise CutError(
                    f"cut {c.cut_id} runs backward "
                    f"({c.from_fragment} -> {c.to_fragment}): quotient cycle"
                )
        for q, frags in _qubit_fragment_runs(self.circuit, seen).items():
            if len(frags) != len(set(frags)):
                raise CutError(
                    f"qubit {q} revisits a fragment: timeline not contiguous"
                )

    def summary(self) -> str:
        """One-line digest of the plan's shape and cost."""
        widths = "/".join(str(w) for w in self.widths)
        return (
            f"{self.num_fragments} fragments (widths {widths}) via "
            f"{self.num_cuts} cuts [{self.strategy}]: 16^{self.num_cuts} "
            f"= {self.num_variants} logical variants"
        )


def _qubit_fragment_runs(
    circuit: QuantumCircuit, gate_fragment: Dict[int, int]
) -> Dict[int, List[int]]:
    """Per qubit, the fragment sequence its timeline visits (runs collapsed)."""
    runs: Dict[int, List[int]] = {}
    for g, gate in enumerate(circuit):
        f = gate_fragment[g]
        for q in gate.qubits:
            seq = runs.setdefault(q, [])
            if not seq or seq[-1] != f:
                seq.append(f)
    return runs


def plan_from_partition(
    circuit: QuantumCircuit,
    partition: Partition,
    max_width: Optional[int] = None,
) -> CutPlan:
    """Turn a valid acyclic :class:`Partition` into a :class:`CutPlan`.

    Each part becomes one fragment; each transition of a qubit timeline
    between parts becomes one :class:`WireCut`.  ``max_width`` defaults
    to the partition's widest part.

    >>> from repro.partition.base import Partition
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> p = Partition.from_assignment(qc, [0, 0, 1], limit=2, strategy="Nat")
    >>> plan = plan_from_partition(qc, p)
    >>> plan.num_cuts, [c.qubit for c in plan.cuts], plan.widths
    (1, [1], (2, 2))
    """
    if partition.num_gates != len(circuit):
        raise CutError("partition does not describe this circuit")
    assignment = partition.assignment()
    gate_fragment = dict(enumerate(assignment))
    runs = _qubit_fragment_runs(circuit, gate_fragment)

    # Last/first gate per (qubit, fragment) to anchor each cut.
    first_gate: Dict[Tuple[int, int], int] = {}
    last_gate: Dict[Tuple[int, int], int] = {}
    for g, gate in enumerate(circuit):
        f = assignment[g]
        for q in gate.qubits:
            first_gate.setdefault((q, f), g)
            last_gate[(q, f)] = g

    cuts: List[WireCut] = []
    for q in sorted(runs):
        seq = runs[q]
        for prev, nxt in zip(seq, seq[1:]):
            cuts.append(
                WireCut(
                    cut_id=len(cuts),
                    qubit=q,
                    gate_before=last_gate[(q, prev)],
                    gate_after=first_gate[(q, nxt)],
                    from_fragment=prev,
                    to_fragment=nxt,
                )
            )

    last_touch: Dict[int, int] = {}
    for g, gate in enumerate(circuit):
        for q in gate.qubits:
            last_touch[q] = assignment[g]

    fragments: List[CutFragment] = []
    for i, part in enumerate(partition.parts):
        fragments.append(
            CutFragment(
                index=i,
                gate_indices=part.gate_indices,
                qubits=part.qubits,
                in_cuts=tuple(c.cut_id for c in cuts if c.to_fragment == i),
                out_cuts=tuple(c.cut_id for c in cuts if c.from_fragment == i),
                terminal_qubits=tuple(
                    sorted(q for q, f in last_touch.items() if f == i)
                ),
            )
        )
    plan = CutPlan(
        circuit=circuit,
        fragments=tuple(fragments),
        cuts=tuple(cuts),
        max_width=max_width if max_width is not None else partition.max_working_set(),
        strategy=partition.strategy,
    )
    plan.validate()
    return plan


def plan_from_assignment(
    circuit: QuantumCircuit,
    assignment: Sequence[int],
    max_width: Optional[int] = None,
    strategy: str = "manual",
) -> CutPlan:
    """Build a :class:`CutPlan` from an explicit gate -> fragment map.

    The assignment must form a valid acyclic partition (same contract
    as :meth:`Partition.from_assignment`); fragments are renumbered
    into topological order.  This is the hook tests and callers with
    domain knowledge use to pin an exact cut structure.

    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> plan = plan_from_assignment(qc, [0, 0, 1], max_width=2)
    >>> plan.num_cuts, plan.widths
    (1, (2, 2))
    """
    width = max_width if max_width is not None else circuit.num_qubits
    try:
        partition = Partition.from_assignment(
            circuit, assignment, limit=width, strategy=strategy
        )
    except PartitionError as exc:
        raise CutError(str(exc)) from exc
    return plan_from_partition(circuit, partition, max_width=width)


def check_max_width(circuit: QuantumCircuit, max_width: int) -> None:
    """Refuse a ``max_width`` no fragment holding the widest gate fits."""
    arity = max((len(g.qubits) for g in circuit), default=1)
    if max_width < arity:
        raise CutError(
            f"max_width {max_width} below the widest gate ({arity} qubits)"
        )


def find_cuts(
    circuit: QuantumCircuit,
    max_width: int,
    *,
    strategy: str = "dagP",
    max_cuts: Optional[int] = None,
    partition: Optional[Partition] = None,
) -> CutPlan:
    """Find a low-weight wire cutting with every fragment ``<= max_width``.

    Starts from ``partition`` — the circuit partitioned at
    ``limit=max_width``, computed here with the named partitioner
    (which minimises qubit-timeline boundary crossings over the
    interaction structure) unless the caller already holds it — then
    greedily re-merges parts that fit together — every merge removes
    at least the cuts between the merged pair — and reads the cuts off
    the qubit timelines.

    ``max_cuts`` is a budget: the plan is rejected if it needs more
    cuts (each one multiplies recombination cost by 16).

    >>> qc = QuantumCircuit(4).h(0).cx(0, 1).cx(1, 2).cx(2, 3)
    >>> plan = find_cuts(qc, max_width=2)
    >>> plan.max_width, max(plan.widths) <= 2, plan.num_cuts >= 1
    (2, True, True)
    """
    if partition is None:
        check_max_width(circuit, max_width)
        try:
            partition = get_partitioner(strategy).partition(circuit, max_width)
        except PartitionError as exc:
            raise CutError(str(exc)) from exc
    if partition.num_parts > 1:
        # Glue parts back together wherever the union still fits: each
        # merge deletes every cut between the merged pair.
        graph = GateGraph.from_circuit(circuit)
        merged = merge_assignment(graph, partition.assignment(), max_width)
        partition = Partition.from_assignment(
            circuit, merged, limit=max_width,
            strategy=partition.strategy, graph=graph,
        )
    plan = plan_from_partition(circuit, partition, max_width=max_width)
    if max_cuts is not None and plan.num_cuts > max_cuts:
        raise CutError(
            f"best plan needs {plan.num_cuts} cuts "
            f"(budget {max_cuts}); raise --cuts or --max-width"
        )
    return plan
