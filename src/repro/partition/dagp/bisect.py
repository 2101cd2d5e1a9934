"""Initial acyclic bisection (greedy directed graph growing).

Any weight-split along a topological order is an acyclic bisection (all
crossing edges point forward).  We try several orders — the natural Kahn
order, a top-level order, and randomised tie-breaks — take the prefix
holding roughly half the weight, and keep the candidate with the best
(lexicographic) cost: smaller max working set, then smaller total working
set, then better balance.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ...dag import GateGraph

__all__ = ["initial_bisection", "bisection_cost"]


def bisection_cost(sub: GateGraph, labels: List[int]) -> Tuple[int, int, int]:
    """(max side working set, sum of working sets, weight imbalance)."""
    m0 = m1 = 0
    w0 = w1 = 0
    for v in range(sub.num_nodes):
        if labels[v] == 0:
            m0 |= sub.qmask[v]
            w0 += sub.weight[v]
        else:
            m1 |= sub.qmask[v]
            w1 += sub.weight[v]
    c0, c1 = m0.bit_count(), m1.bit_count()
    return (max(c0, c1), c0 + c1, abs(w0 - w1))


def _split_along(sub: GateGraph, order: List[int]) -> Optional[List[int]]:
    """Prefix/suffix split of a topological order at ~half weight."""
    total = sub.total_weight()
    if total < 2:
        return None
    labels = [1] * sub.num_nodes
    acc = 0
    for i, v in enumerate(order):
        # Close the prefix once half the weight is covered, but never leave
        # either side empty.
        if acc >= (total + 1) // 2 and i > 0:
            break
        labels[v] = 0
        acc += sub.weight[v]
    if acc == total:  # everything fell into side 0; force last node out
        labels[order[-1]] = 1
    return labels


def initial_bisection(sub: GateGraph, seed: int = 9) -> List[int]:
    """Labels (0 = early side, 1 = late side) for an acyclic bisection."""
    if sub.num_nodes < 2:
        raise ValueError("cannot bisect fewer than 2 nodes")
    candidates: List[List[float]] = []
    # Natural order priority.
    candidates.append([float(min(g)) for g in sub.gate_ids])
    # Top-level (longest path) priority.
    levels = [0] * sub.num_nodes
    for v in sub.topological_order():
        for w in sub.succ[v]:
            levels[w] = max(levels[w], levels[v] + 1)
    candidates.append([float(l) for l in levels])
    # Two randomised priorities.
    rng = random.Random(seed)
    for _ in range(2):
        candidates.append([rng.random() for _ in range(sub.num_nodes)])

    best: Optional[List[int]] = None
    best_cost = None
    for prio in candidates:
        order = sub.topological_order(priority=prio)
        labels = _split_along(sub, order)
        if labels is None:
            continue
        cost = bisection_cost(sub, labels)
        if best_cost is None or cost < best_cost:
            best, best_cost = labels, cost
    if best is None:
        raise ValueError("no valid bisection found")
    return best
