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


def _merge_preference(sub: GateGraph, u: int, v: int) -> Tuple[int, int]:
    """Sort key: (shared qubits desc, resulting working set asc)."""
    shared = (sub.qmask[u] & sub.qmask[v]).bit_count()
    union = (sub.qmask[u] | sub.qmask[v]).bit_count()
    return (-shared, union)


def coarsen_once(
    sub: GateGraph,
    rng: random.Random,
    max_cluster_weight: int,
    max_cluster_qubits: int,
) -> Tuple[GateGraph, List[int]]:
    """One clustering pass; returns (coarse graph, node->cluster map).

    Each node joins at most one merge per pass (matching/agglomeration).
    Weight and qubit caps keep clusters usable by later phases.
    """
    n = sub.num_nodes
    cluster_of = list(range(n))
    merged = [False] * n

    nodes = list(range(n))
    rng.shuffle(nodes)
    for u in nodes:
        if merged[u]:
            continue
        candidates: List[int] = []
        if len(sub.succ[u]) == 1:
            candidates.append(sub.succ[u][0])
        for v in sub.succ[u]:
            if len(sub.pred[v]) == 1:
                candidates.append(v)
        best = None
        best_key = None
        for v in candidates:
            if v == u or merged[v]:
                continue
            if sub.weight[u] + sub.weight[v] > max_cluster_weight:
                continue
            if (sub.qmask[u] | sub.qmask[v]).bit_count() > max_cluster_qubits:
                continue
            key = _merge_preference(sub, u, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        if best is not None:
            cluster_of[best] = u
            merged[u] = merged[best] = True

    # Compact cluster ids.
    remap = {}
    for v in range(n):
        root = cluster_of[v]
        if root not in remap:
            remap[root] = len(remap)
    compact = [remap[cluster_of[v]] for v in range(n)]
    coarse = sub.contract(compact, len(remap))
    return coarse, compact


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
    total_w = max(1, sub.total_weight())
    for _ in range(_MAX_LEVELS):
        cur = graphs[-1]
        if cur.num_nodes <= target_nodes:
            break
        max_w = max(2, total_w // max(2, target_nodes // 2))
        coarse, mapping = coarsen_once(cur, rng, max_w, _MAX_CLUSTER_QUBITS)
        if coarse.num_nodes >= cur.num_nodes:
            break
        graphs.append(coarse)
        maps.append(mapping)
    return graphs, maps
