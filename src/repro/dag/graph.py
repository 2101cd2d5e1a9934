"""Directed acyclic graph used for circuit partitioning.

Nodes are computational gates plus per-qubit *entry*/*exit* pseudo-nodes
(Sec. IV-A); each edge carries the qubit it transports.  Qubit sets are
stored as integer bitmasks (``<= 64`` qubits in practice), so working-set
sizes are popcounts and unions are single OR operations.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["NodeKind", "CircuitDAG"]


class NodeKind(IntEnum):
    ENTRY = 0
    GATE = 1
    EXIT = 2


class CircuitDAG:
    """Qubit-labelled DAG over entry/gate/exit nodes.

    Attributes
    ----------
    num_nodes, num_qubits:
        Sizes.
    kind:
        ``NodeKind`` per node.
    gate_index:
        Circuit gate index per node (-1 for pseudo-nodes).
    node_qubit:
        For entry/exit nodes, the qubit they carry (-1 for gates).
    qmask:
        Bitmask of qubits each node touches.
    succ, pred:
        Adjacency: lists of ``(neighbor, qubit)`` pairs.
    """

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self.num_nodes = 0
        self.kind: List[NodeKind] = []
        self.gate_index: List[int] = []
        self.node_qubit: List[int] = []
        self.qmask: List[int] = []
        self.succ: List[List[Tuple[int, int]]] = []
        self.pred: List[List[Tuple[int, int]]] = []

    # -- construction --------------------------------------------------------

    def add_node(self, kind: NodeKind, gate_index: int = -1, qubit: int = -1,
                 qmask: int = 0) -> int:
        nid = self.num_nodes
        self.num_nodes += 1
        self.kind.append(kind)
        self.gate_index.append(gate_index)
        self.node_qubit.append(qubit)
        self.qmask.append(qmask)
        self.succ.append([])
        self.pred.append([])
        return nid

    def add_edge(self, u: int, v: int, qubit: int) -> None:
        if u == v:
            raise ValueError("self loop")
        self.succ[u].append((v, qubit))
        self.pred[v].append((u, qubit))

    # -- basic queries ---------------------------------------------------------

    def gate_nodes(self) -> List[int]:
        return [i for i in range(self.num_nodes) if self.kind[i] == NodeKind.GATE]

    def entry_nodes(self) -> List[int]:
        return [i for i in range(self.num_nodes) if self.kind[i] == NodeKind.ENTRY]

    def exit_nodes(self) -> List[int]:
        return [i for i in range(self.num_nodes) if self.kind[i] == NodeKind.EXIT]

    def in_degree(self, v: int) -> int:
        return len(self.pred[v])

    def out_degree(self, v: int) -> int:
        return len(self.succ[v])

    # -- orders and checks -------------------------------------------------------

    def topological_order(self, priority: Optional[Sequence[int]] = None) -> List[int]:
        """Kahn topological order; ties broken by ``priority`` (lower first)
        or node id."""
        import heapq

        indeg = [len(self.pred[v]) for v in range(self.num_nodes)]
        if priority is None:
            priority = list(range(self.num_nodes))
        heap = [
            (priority[v], v) for v in range(self.num_nodes) if indeg[v] == 0
        ]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            _, v = heapq.heappop(heap)
            order.append(v)
            for w, _ in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, (priority[w], w))
        if len(order) != self.num_nodes:
            raise ValueError("graph has a cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

    def top_levels(self) -> List[int]:
        """Longest-path-from-source level per node (entry nodes at 0)."""
        levels = [0] * self.num_nodes
        for v in self.topological_order():
            for w, _ in self.succ[v]:
                if levels[v] + 1 > levels[w]:
                    levels[w] = levels[v] + 1
        return levels

    def working_set_mask(self, nodes: Iterable[int]) -> int:
        m = 0
        for v in nodes:
            m |= self.qmask[v]
        return m

    def working_set_size(self, nodes: Iterable[int]) -> int:
        return self.working_set_mask(nodes).bit_count()

    # -- conversions ---------------------------------------------------------

    def to_networkx(self):
        """networkx.DiGraph copy (tests / cross-validation only)."""
        import networkx as nx

        g = nx.DiGraph()
        for v in range(self.num_nodes):
            g.add_node(
                v,
                kind=int(self.kind[v]),
                gate_index=self.gate_index[v],
                qubit=self.node_qubit[v],
            )
        for v in range(self.num_nodes):
            for w, q in self.succ[v]:
                g.add_edge(v, w, qubit=q)
        return g
