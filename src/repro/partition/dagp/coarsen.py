"""Acyclic agglomerative clustering (dagP coarsening phase).

Contracting an edge ``(u, v)`` of a DAG keeps the quotient acyclic iff
there is **no alternative path** from ``u`` to ``v``.  We use the cheap
sufficient condition from the acyclic-partitioning literature:

    ``outdeg(u) == 1`` (any u->...->v path must start with the edge) or
    ``indeg(v) == 1``  (any path must end with it),

checked on the *current* coarse graph so contractions compose safely.
Among admissible merges we prefer pairs sharing many qubits — those unions
keep the cluster working set small, which is what the modified objective
cares about.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ...dag import GateGraph

__all__ = ["coarsen_once", "coarsen"]

_MAX_LEVELS = 20
_MAX_CLUSTER_QUBITS = 64


def coarsen_once(
    sub: GateGraph,
    rng: random.Random,
    max_cluster_weight: int,
    max_cluster_qubits: int,
) -> Tuple[GateGraph, List[int]]:
    """One clustering pass; returns (coarse graph, node->cluster map).

    Each node joins at most one merge per pass (matching/agglomeration).
    Weight and qubit caps keep clusters usable by later phases.  Among a
    node's admissible partners the first with the lowest (shared qubits
    desc, resulting working set asc) wins.
    """
    n = sub.num_nodes
    succ, pred, qmask, weight = sub.succ, sub.pred, sub.qmask, sub.weight
    cluster_of = list(range(n))
    merged = [False] * n
    k = n  # clusters left

    nodes = list(range(n))
    rng.shuffle(nodes)
    # Only a node with one successor, or the sole predecessor of another,
    # has a partner at all; on a stalled lattice that is almost nobody.
    sole = {p[0] for p in pred if len(p) == 1}
    for u in [u for u in nodes if len(succ[u]) == 1 or u in sole]:
        if merged[u]:
            continue
        best = best_key = None
        only = len(succ[u]) == 1  # else v must have no other predecessor
        for v in succ[u]:
            if merged[v] or not (only or len(pred[v]) == 1):
                continue
            if weight[u] + weight[v] > max_cluster_weight:
                continue
            union = (qmask[u] | qmask[v]).bit_count()
            if union > max_cluster_qubits:
                continue
            key = (-(qmask[u] & qmask[v]).bit_count(), union)
            if best_key is None or key < best_key:
                best, best_key = v, key
        if best is not None:
            cluster_of[best] = u
            merged[u] = merged[best] = True
            k -= 1

    if k == n:  # nothing merged: the caller stops here
        return sub, cluster_of
    # Compact cluster ids in order of first appearance.
    remap = {root: c for c, root in enumerate(dict.fromkeys(cluster_of))}
    compact = [remap[root] for root in cluster_of]
    return sub.contract(compact, k), compact


def coarsen(
    sub: GateGraph, target_nodes: int = 64, seed: int = 5
) -> Tuple[List[GateGraph], List[List[int]]]:
    """Full coarsening: returns graphs [fine..coarse] and per-level maps.

    Stops when the graph is small enough, a pass stops making progress, or
    after ``_MAX_LEVELS``.  ``maps[i]`` sends level-``i`` node ids to
    level-``i+1`` cluster ids.
    """
    rng = random.Random(seed)
    graphs = [sub]
    maps: List[List[int]] = []
    max_w = max(2, max(1, sub.total_weight()) // max(2, target_nodes // 2))
    for _ in range(_MAX_LEVELS):
        cur = graphs[-1]
        if cur.num_nodes <= target_nodes:
            break
        coarse, mapping = coarsen_once(cur, rng, max_w, _MAX_CLUSTER_QUBITS)
        if coarse.num_nodes >= cur.num_nodes:
            break
        graphs.append(coarse)
        maps.append(mapping)
    return graphs, maps
