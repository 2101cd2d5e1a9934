"""``DFS``: best-of-k random DFS topological-order cutoff (Sec. IV-B2).

``Nat`` falls short when the written gate order interleaves many qubits.
``DFS`` samples several randomised depth-first topological orders — a LIFO
ready-stack with shuffled tie-breaking keeps related gates (same qubit
chains) adjacent — applies the same working-set cutoff to each, and keeps
the order producing the fewest parts.
"""

from __future__ import annotations

import random
from typing import List

from ..circuits.circuit import QuantumCircuit
from ..config import check_count
from ..dag import GateGraph
from .base import Partition
from .natural import cutoff_assignment

__all__ = ["DFSPartitioner", "random_dfs_topological_order"]


def random_dfs_topological_order(graph: GateGraph, rng: random.Random) -> List[int]:
    """A randomised DFS-flavoured topological order of ``graph``'s nodes.

    Newly-enabled successors are pushed (in shuffled order) onto a LIFO
    stack, so each emitted gate tends to be followed by gates it feeds —
    the depth-first behaviour the paper exploits for locality.
    """
    indeg = [len(p) for p in graph.pred]
    roots = [v for v, d in enumerate(indeg) if d == 0]
    rng.shuffle(roots)
    stack = roots
    order: List[int] = []
    while stack:
        v = stack.pop()
        order.append(v)
        ready = []
        for w in graph.succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        rng.shuffle(ready)
        stack.extend(ready)
    if len(order) != graph.num_nodes:
        raise ValueError("dependency graph has a cycle")
    return order


class DFSPartitioner:
    """The paper's ``DFS`` strategy: best-of-k randomised DFS orders.

    >>> from repro.circuits.generators import qft
    >>> p = DFSPartitioner(trials=4, seed=1).partition(qft(6), limit=4)
    >>> p.strategy, p.max_working_set() <= 4
    ('DFS', True)

    Parameters
    ----------
    trials:
        Number of random orders sampled (paper: "several"; default 8).
    seed:
        Base RNG seed; trial ``t`` uses ``seed + t`` for reproducibility.
    """

    name = "DFS"

    def __init__(self, trials: int = 8, seed: int = 1) -> None:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.trials = trials
        self.seed = seed

    def partition(self, circuit: QuantumCircuit, limit: int) -> Partition:
        check_count("limit", limit)
        graph = GateGraph.from_circuit(circuit)
        best: Partition | None = None
        for t in range(self.trials):
            rng = random.Random(self.seed + t)
            order = random_dfs_topological_order(graph, rng)
            assignment = cutoff_assignment(graph.qmask, order, limit)
            cand = Partition.from_assignment(
                circuit, assignment, limit, self.name, graph=graph
            )
            if best is None or cand.num_parts < best.num_parts:
                best = cand
        assert best is not None
        return best
