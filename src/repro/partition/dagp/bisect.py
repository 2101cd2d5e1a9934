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
from bisect import bisect_left
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import List

from ...dag import GateGraph

__all__ = ["initial_bisection"]


def _split_point(weight: List[int], order: List[int], total: int) -> int:
    """Length of the prefix of ``order`` that closes once half the weight
    is covered, never leaving either side empty."""
    covered = list(accumulate(map(weight.__getitem__, order)))
    return min(bisect_left(covered, (total + 1) // 2) + 1, len(order) - 1)


def initial_bisection(sub: GateGraph, seed: int = 9) -> List[int]:
    """Labels (0 = early side, 1 = late side) for an acyclic bisection."""
    if sub.num_nodes < 2:
        raise ValueError("cannot bisect fewer than 2 nodes")
    n = sub.num_nodes
    qmask, weight = sub.qmask, sub.weight
    # Natural order: lowest node id first (coarsening numbers clusters by
    # their earliest gate, so this is the written order at every level).
    orders = [sub.topological_order()]
    # Top-level (longest path) order; a stable sort by level is the Kahn
    # order under that priority, since a whole level is ready at once.
    levels = [0] * n
    for v in orders[0]:
        up = levels[v] + 1
        for w in sub.succ[v]:
            if levels[w] < up:
                levels[w] = up
    orders.append(sorted(range(n), key=levels.__getitem__))
    # Two randomised priorities.
    rng = random.Random(seed)
    for _ in range(2):
        orders.append(sub.topological_order([rng.random() for _ in range(n)]))

    total = sub.total_weight()
    if total < 2:
        raise ValueError("no valid bisection found")
    # Each candidate splits an order into a prefix (side 0) and the rest;
    # its cost is (max side working set, sum of working sets, weight
    # imbalance).
    best = best_cost = None
    for order in orders:
        p = _split_point(weight, order, total)
        c0 = reduce(or_, map(qmask.__getitem__, order[:p]), 0).bit_count()
        c1 = reduce(or_, map(qmask.__getitem__, order[p:]), 0).bit_count()
        w0 = sum(map(weight.__getitem__, order[:p]))
        cost = (max(c0, c1), c0 + c1, abs(total - 2 * w0))
        if best_cost is None or cost < best_cost:
            best, best_cost = order[:p], cost
    labels = [1] * n
    for v in best:
        labels[v] = 0
    return labels
