"""Greedy directed graph growing (GGG) — dagP's growing heuristic.

Grows one part at a time from the ready frontier (gates whose predecessors
are all assigned).  Among ready gates it admits the one that increases the
part's working set least — the "global view" the paper credits dagP with:
unlike Nat/DFS, the choice at each step scans the *whole* frontier rather
than following a fixed order.  When nothing fits under ``Lm`` the part is
closed.  Parts are emitted in topological order by construction.
"""

from __future__ import annotations

from typing import List

from ...dag import GateGraph

__all__ = ["greedy_grow_assignment"]


def greedy_grow_assignment(sub: GateGraph, limit: int) -> List[int]:
    """Node -> part assignment via greedy directed growing.

    Assumes every node's own qubit mask fits ``limit``.
    """
    n = sub.num_nodes
    assignment = [-1] * n
    indeg = [len(sub.pred[v]) for v in range(n)]
    # Ready = unassigned nodes whose predecessors are all assigned.
    ready = set(v for v in range(n) if indeg[v] == 0)
    qmask = sub.qmask
    earliest = [min(ids) for ids in sub.gate_ids]
    part = 0
    mask = 0
    remaining = n
    while remaining:
        # Pick the ready node with the smallest working-set increase;
        # ties: larger overlap with the current mask, then earliest gate.
        best = None
        best_key = None
        for v in ready:
            union = (mask | qmask[v]).bit_count()
            if union > limit:
                continue
            overlap = (mask & qmask[v]).bit_count()
            key = (union, -overlap, earliest[v])
            if best_key is None or key < best_key:
                best, best_key = v, key
        if best is None:
            # Nothing fits: close the part.
            part += 1
            mask = 0
            continue
        assignment[best] = part
        mask |= qmask[best]
        ready.discard(best)
        for w in sub.succ[best]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.add(w)
        remaining -= 1
    return assignment
