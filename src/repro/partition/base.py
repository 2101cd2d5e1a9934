"""Partitioning framework: result types and the strategy interface.

A :class:`Partition` is the contract between partitioners and executors:
parts appear in a **topological execution order** (the acyclicity the paper
requires), every gate appears in exactly one part (in original circuit
order inside its part), and every part's working set fits the qubit limit.
:meth:`Partition.from_assignment` normalises any raw gate->part assignment
into that shape, raising if the quotient graph is cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..dag import GateGraph

__all__ = ["Part", "Partition", "Partitioner", "PartitionError"]


class PartitionError(ValueError):
    """Raised when an assignment cannot form a valid acyclic partition.

    >>> issubclass(PartitionError, ValueError)
    True
    """


@dataclass(frozen=True)
class Part:
    """One sub-circuit: gate indices (circuit order) and its working set.

    >>> part = Part(gate_indices=(0, 2), qubits=(1, 3))
    >>> part.num_gates, part.working_set_size, bin(part.qmask)
    (2, 2, '0b1010')
    """

    gate_indices: Tuple[int, ...]
    qubits: Tuple[int, ...]

    @property
    def working_set_size(self) -> int:
        return len(self.qubits)

    @property
    def num_gates(self) -> int:
        return len(self.gate_indices)

    @property
    def qmask(self) -> int:
        m = 0
        for q in self.qubits:
            m |= 1 << q
        return m


@dataclass(frozen=True)
class Partition:
    """An ordered acyclic partition of a circuit's gates.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> p = Partition.from_assignment(qc, [0, 0, 1], limit=2, strategy="Nat")
    >>> p.num_parts, p.gates_per_part(), p.max_working_set()
    (2, [2, 1], 2)
    >>> p.assignment()
    [0, 0, 1]
    """

    num_qubits: int
    num_gates: int
    limit: int
    strategy: str
    parts: Tuple[Part, ...]

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def assignment(self) -> List[int]:
        """gate index -> part index."""
        a = [-1] * self.num_gates
        for p, part in enumerate(self.parts):
            for g in part.gate_indices:
                a[g] = p
        return a

    def max_working_set(self) -> int:
        return max((p.working_set_size for p in self.parts), default=0)

    def gates_per_part(self) -> List[int]:
        return [p.num_gates for p in self.parts]

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_assignment(
        circuit: QuantumCircuit,
        assignment: Sequence[int],
        limit: int,
        strategy: str,
        graph: Optional[GateGraph] = None,
    ) -> "Partition":
        """Normalise a raw gate->part map into an ordered valid partition.

        Parts are renumbered into a topological order of the quotient graph
        (stable: ties broken by smallest member gate index).  ``graph`` is
        ``GateGraph.from_circuit(circuit)`` when the caller already holds
        it.  Raises :class:`PartitionError` on cyclic quotients, uncovered
        gates or working-set violations.
        """
        n_gates = len(circuit)
        if len(assignment) != n_gates:
            raise PartitionError("assignment length != gate count")
        if n_gates == 0:
            return Partition(circuit.num_qubits, 0, limit, strategy, ())
        raw_ids = sorted(set(assignment))
        if raw_ids[0] < 0:
            raise PartitionError("unassigned gate (negative part id)")
        remap = {r: i for i, r in enumerate(raw_ids)}
        if graph is None:
            graph = GateGraph.from_circuit(circuit)
        quotient = graph.contract([remap[a] for a in assignment], len(raw_ids))
        try:
            order = quotient.topological_order(
                priority=[gates[0] for gates in quotient.gate_ids]
            )
        except ValueError:
            raise PartitionError(f"{strategy}: quotient graph is cyclic") from None

        parts: List[Part] = []
        for pid in order:
            mask = quotient.qmask[pid]
            if mask.bit_count() > limit:
                raise PartitionError(
                    f"{strategy}: part working set {mask.bit_count()} exceeds "
                    f"limit {limit}"
                )
            qubits = tuple(q for q in range(mask.bit_length()) if mask >> q & 1)
            parts.append(Part(tuple(quotient.gate_ids[pid]), qubits))
        return Partition(
            num_qubits=circuit.num_qubits,
            num_gates=n_gates,
            limit=limit,
            strategy=strategy,
            parts=tuple(parts),
        )


class Partitioner(Protocol):
    """Strategy interface: circuit + qubit limit -> :class:`Partition`.

    Implementations (``Nat`` / ``DFS`` / ``dagP`` / ``ILP``) expose a
    ``name`` and a ``partition(circuit, limit)`` method; see
    :func:`repro.partition.get_partitioner`.

    >>> from repro.partition import NaturalPartitioner
    >>> p = NaturalPartitioner()
    >>> p.name, callable(p.partition)
    ('Nat', True)
    """

    name: str

    def partition(self, circuit: QuantumCircuit, limit: int) -> Partition:
        ...  # pragma: no cover - protocol
