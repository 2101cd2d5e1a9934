"""DAG analyses: working sets, the in-edge counting trick, critical stats.

The paper (Sec. IV-B3) observes that for circuit DAGs — where a gate's
in-edges carry exactly its distinct operand qubits — a part's working-set
size equals *(number of qubit-distinct in-edges crossing into the part) +
(number of entry nodes inside the part)*.  :func:`working_set_by_inedges`
implements that; tests assert it agrees with the direct union definition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .graph import CircuitDAG, NodeKind

__all__ = [
    "working_set_by_inedges",
    "working_set_direct",
    "qubit_traces",
    "dag_stats",
]


def working_set_direct(dag: CircuitDAG, nodes: Iterable[int]) -> int:
    """Working-set size as the union of member nodes' qubit masks."""
    return dag.working_set_size(nodes)


def working_set_by_inedges(dag: CircuitDAG, nodes: Iterable[int]) -> int:
    """Working-set size via the paper's in-edge counting trick."""
    node_set = set(nodes)
    qubits: Set[int] = set()
    for v in node_set:
        if dag.kind[v] == NodeKind.ENTRY:
            qubits.add(dag.node_qubit[v])
        for u, q in dag.pred[v]:
            if u not in node_set:
                qubits.add(q)
    return len(qubits)


def qubit_traces(dag: CircuitDAG) -> Dict[int, List[int]]:
    """Per-qubit node path entry -> gates -> exit (follows edge labels)."""
    traces: Dict[int, List[int]] = {}
    for e in dag.entry_nodes():
        q = dag.node_qubit[e]
        path = [e]
        cur = e
        while True:
            nxt = [w for w, lbl in dag.succ[cur] if lbl == q]
            if not nxt:
                break
            if len(nxt) != 1:
                raise ValueError(f"qubit {q} forks at node {cur}")
            cur = nxt[0]
            path.append(cur)
        traces[q] = path
    return traces


def dag_stats(dag: CircuitDAG) -> Dict[str, int]:
    """Node/edge/level summary used in reports and tests."""
    edges = sum(len(s) for s in dag.succ)
    levels = dag.top_levels()
    return {
        "nodes": dag.num_nodes,
        "gate_nodes": len(dag.gate_nodes()),
        "edges": edges,
        "qubits": dag.num_qubits,
        "critical_path": max(levels) if levels else 0,
    }
