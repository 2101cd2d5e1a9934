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
from itertools import accumulate
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
    merged = [False] * n
    merges = []  # per merge, its two members, lower id first

    # ``rng.shuffle(nodes)``, inline: the same getrandbits draws.
    nodes = list(range(n))
    getrandbits = rng.getrandbits
    for i in range(n - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        nodes[i], nodes[j] = nodes[j], nodes[i]
    # Only a node with one successor, or the sole predecessor of another,
    # has a partner at all; on a stalled lattice that is almost nobody.
    candidate = [len(s) == 1 for s in succ]
    for p in pred:
        if len(p) == 1:
            candidate[p[0]] = True
    for u in [u for u in nodes if candidate[u]]:
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
            merged[u] = merged[best] = True
            merges.append((u, best) if u < best else (best, u))

    if not merges:  # nothing merged: the caller stops here
        return sub, list(range(n))
    # Cluster ids in order of first appearance: a running count of first
    # members (node 0 is one, and counts as 0), which a later member
    # then overrides with its partner's id.
    first = [1] * n
    first[0] = 0
    for _, v in merges:
        first[v] = 0
    compact = list(accumulate(first))
    for u, v in merges:
        compact[v] = compact[u]
    return sub.contract(compact, n - len(merges)), compact


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
