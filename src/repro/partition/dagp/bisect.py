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
    mask = [0, 0]
    side_w = [0, 0]
    for s, m, w in zip(labels, sub.qmask, sub.weight):
        mask[s] |= m
        side_w[s] += w
    c0, c1 = mask[0].bit_count(), mask[1].bit_count()
    return (max(c0, c1), c0 + c1, abs(side_w[0] - side_w[1]))


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
    n = sub.num_nodes
    # Natural order: lowest node id first (coarsening numbers clusters by
    # their earliest gate, so this is the written order at every level).
    orders = [sub.topological_order()]
    # Top-level (longest path) order; a stable sort by level is the Kahn
    # order under that priority, since a whole level is ready at once.
    levels = [0] * n
    for v in orders[0]:
        for w in sub.succ[v]:
            levels[w] = max(levels[w], levels[v] + 1)
    orders.append(sorted(range(n), key=levels.__getitem__))
    # Two randomised priorities.
    rng = random.Random(seed)
    for _ in range(2):
        orders.append(sub.topological_order([rng.random() for _ in range(n)]))

    best: Optional[List[int]] = None
    best_cost = None
    for order in orders:
        labels = _split_along(sub, order)
        if labels is None:
            continue
        cost = bisection_cost(sub, labels)
        if best_cost is None or cost < best_cost:
            best, best_cost = labels, cost
    if best is None:
        raise ValueError("no valid bisection found")
    return best
