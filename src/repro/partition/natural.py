"""``Nat``: natural topological-order cutoff partitioning (Sec. IV-B1).

Stream the gates in original circuit order, accumulating the running
working set; when admitting the next gate would push the distinct-qubit
count past ``Lm``, close the current part and start a new one.  Interval
partitions of a topological order are acyclic by construction.
"""

from __future__ import annotations

from typing import List, Sequence

from ..circuits.circuit import QuantumCircuit
from ..config import check_count
from ..dag import GateGraph
from .base import Partition, PartitionError

__all__ = ["NaturalPartitioner", "cutoff_assignment"]


def cutoff_assignment(
    gate_qmasks: Sequence[int], order: Sequence[int], limit: int
) -> List[int]:
    """Greedy working-set cutoff along ``order``.

    ``order`` lists gate indices in a topological order; returns the raw
    gate->part assignment.  Raises when a single gate exceeds ``limit``.
    """
    assignment = [-1] * len(gate_qmasks)
    part = 0
    mask = 0
    for g in order:
        gm = gate_qmasks[g]
        if gm.bit_count() > limit:
            raise PartitionError(
                f"gate {g} touches {gm.bit_count()} qubits > limit {limit}"
            )
        merged = mask | gm
        if merged.bit_count() > limit:
            part += 1
            merged = gm
        mask = merged
        assignment[g] = part
    return assignment


class NaturalPartitioner:
    """The paper's ``Nat`` strategy: working-set cutoff in written order.

    >>> from repro.circuits.generators import qft
    >>> p = NaturalPartitioner().partition(qft(6), limit=4)
    >>> p.strategy, p.max_working_set() <= 4
    ('Nat', True)
    """

    name = "Nat"

    def partition(self, circuit: QuantumCircuit, limit: int) -> Partition:
        check_count("limit", limit)
        graph = GateGraph.from_circuit(circuit)
        assignment = cutoff_assignment(graph.qmask, range(len(circuit)), limit)
        return Partition.from_assignment(
            circuit, assignment, limit, self.name, graph=graph
        )
