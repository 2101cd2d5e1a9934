"""The gate-dependency graph every partitioner, the merge phase and the
cutter read.

A :class:`GateGraph` holds the deduplicated qubit-timeline dependencies
between a circuit's gates (or, after a contraction, between clusters of
gates).  Every node carries a qubit bitmask and a weight (= number of
original gates it represents), so working-set sizes are popcounts and
balance is weight arithmetic.  The quotient graph of a gate -> part map is
:meth:`GateGraph.contract`; its :meth:`~GateGraph.topological_order` is
the part execution order.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import or_
from typing import Callable, Dict, List, Sequence, Tuple, Union

from ..circuits.circuit import QuantumCircuit

__all__ = ["GateGraph", "gate_dependency_edges"]


def gate_dependency_edges(circuit: QuantumCircuit) -> List[Tuple[int, int]]:
    """Qubit-timeline dependency edges (u before v, sharing a qubit).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).h(2)
    >>> gate_dependency_edges(qc)     # h(2) depends on nothing
    [(0, 1)]
    """
    last: Dict[int, int] = {}
    edges: List[Tuple[int, int]] = []
    for i, g in enumerate(circuit):
        for q in g.qubits:
            if q in last:
                edges.append((last[q], i))
            last[q] = i
    return edges


class GateGraph:
    """Deduplicated gate-dependency DAG over clusters of gates."""

    __slots__ = ("_gate_ids", "qmask", "weight", "succ", "pred")

    def __init__(
        self,
        gate_ids: Union[List[List[int]], Callable[[], List[List[int]]]],
        qmask: List[int],
        weight: List[int],
        succ: List[List[int]],
        pred: List[List[int]],
    ) -> None:
        self._gate_ids = gate_ids
        self.qmask = qmask
        self.weight = weight
        self.succ = succ
        self.pred = pred

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "GateGraph":
        """One node per gate (node id == gate index), in circuit order."""
        n = len(circuit)
        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in gate_dependency_edges(circuit):
            if (u, v) not in seen:
                seen.add((u, v))
                succ[u].append(v)
                pred[v].append(u)
        return cls(
            gate_ids=[[g] for g in range(n)],
            qmask=[sum(1 << q for q in g.qubits) for g in circuit],
            weight=[1] * n,
            succ=succ,
            pred=pred,
        )

    # -- queries ----------------------------------------------------------

    @property
    def gate_ids(self) -> List[List[int]]:
        """Per node: original gate indices (a contraction lists them on
        first use; coarsening levels never ask)."""
        if callable(self._gate_ids):
            self._gate_ids = self._gate_ids()
        return self._gate_ids

    @property
    def num_nodes(self) -> int:
        return len(self.qmask)

    def total_weight(self) -> int:
        return sum(self.weight)

    def working_set_mask(self) -> int:
        return reduce(or_, self.qmask, 0)

    def working_set_size(self) -> int:
        return self.working_set_mask().bit_count()

    def topological_order(self, priority: Sequence[float] | None = None) -> List[int]:
        """Kahn order with optional tie-break priorities (lower first)."""
        n = self.num_nodes
        indeg = [len(self.pred[v]) for v in range(n)]
        if priority is None:
            priority = list(range(n))
        heap = [(priority[v], v) for v in range(n) if indeg[v] == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            _, v = heapq.heappop(heap)
            order.append(v)
            for w in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, (priority[w], w))
        if len(order) != n:
            raise ValueError("gate graph contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

    # -- derived graphs -------------------------------------------------------

    def contract(self, cluster_of: Sequence[int], num_clusters: int) -> "GateGraph":
        """Quotient graph under a node->cluster map (edges deduplicated)."""
        qmask = [0] * num_clusters
        weight = [0] * num_clusters
        for c, m, w in zip(cluster_of, self.qmask, self.weight):
            qmask[c] |= m
            weight[c] += w

        def gate_ids() -> List[List[int]]:
            members: List[List[int]] = [[] for _ in range(num_clusters)]
            for c, ids in zip(cluster_of, self.gate_ids):
                members[c] += ids
            return members

        succ: List[List[int]] = [[] for _ in range(num_clusters)]
        pred: List[List[int]] = [[] for _ in range(num_clusters)]
        seen = set()
        for cu, vs in zip(cluster_of, self.succ):
            for v in vs:
                cv = cluster_of[v]
                key = cu * num_clusters + cv
                if cu != cv and key not in seen:
                    seen.add(key)
                    succ[cu].append(cv)
                    pred[cv].append(cu)
        return GateGraph(gate_ids, qmask, weight, succ, pred)

    def induce(self, nodes: Sequence[int]) -> "GateGraph":
        """Sub-graph over ``nodes`` (kept in the given order)."""
        local = dict(zip(nodes, range(len(nodes)))).get
        succ: List[List[int]] = []
        pred: List[List[int]] = [[] for _ in nodes]
        for i, v in enumerate(nodes):
            succ.append([j for j in map(local, self.succ[v]) if j is not None])
            for j in succ[i]:
                pred[j].append(i)
        gate_ids = self.gate_ids
        return GateGraph(
            gate_ids=[gate_ids[v] for v in nodes],
            qmask=[self.qmask[v] for v in nodes],
            weight=[self.weight[v] for v in nodes],
            succ=succ,
            pred=pred,
        )
