"""Final merge phase (dagP addition, Sec. IV-B3).

After recursive bisection the part count can be reduced by gluing parts
back together.  Merging parts ``A`` and ``B`` of an acyclic quotient graph
re-creates a cycle **iff a path connects them through a third part** — a
direct edge alone is safe, it just collapses.  We greedily apply the valid
merge with the largest qubit overlap (smallest union working set) until no
valid merger remains, exactly the paper's "no more possible valid mergers"
stopping rule.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..dag import GateGraph

__all__ = ["greedy_merge", "merge_assignment", "path_through_third"]


def _reach_masks(succ: List[int], k: int) -> List[int]:
    """Bitmask transitive reachability (node i -> mask of reachable nodes)."""
    reach = [0] * k
    # Process in reverse topological order via iterative DFS memoisation.
    state = [0] * k  # 0 unvisited, 1 in stack, 2 done

    for start in range(k):
        if state[start] == 2:
            continue
        stack = [start]
        while stack:
            v = stack[-1]
            if state[v] == 0:
                state[v] = 1
                m = succ[v]
                w = 0
                while m:
                    low = m & -m
                    child = low.bit_length() - 1
                    if state[child] == 0:
                        stack.append(child)
                        w = 1
                    m ^= low
                if w:
                    continue
            # all children done
            r = succ[v]
            m = succ[v]
            while m:
                low = m & -m
                child = low.bit_length() - 1
                r |= reach[child]
                m ^= low
            reach[v] = r
            state[v] = 2
            stack.pop()
    return reach


def path_through_third(reach: List[int], succ: List[int], a: int, b: int) -> bool:
    """True if a path a->...->b (or b->...->a) passes through a third part."""
    for u, v in ((a, b), (b, a)):
        if not (reach[u] >> v) & 1:
            continue
        # Path exists; is there one of length >= 2?  Yes iff some direct
        # successor c != v of u reaches v.
        m = succ[u] & ~(1 << v)
        while m:
            low = m & -m
            c = low.bit_length() - 1
            if (reach[c] >> v) & 1:
                return True
            m ^= low
    return False


def greedy_merge(
    masks: Sequence[int],
    edges: Iterable[Tuple[int, int]],
    limit: int,
) -> List[int]:
    """Greedily merge parts; returns part -> merged-cluster map.

    ``masks`` are per-part qubit bitmasks, ``edges`` the quotient-graph
    edges.  The result uses compact cluster ids ``0..k'-1`` (ids follow the
    smallest original part index in each cluster).  Merges that would
    create a quotient cycle (a path through a third part) are skipped.

    >>> greedy_merge([0b011, 0b110, 0b011], [(0, 1), (1, 2)], limit=2)
    [0, 1, 2]
    >>> greedy_merge([0b011, 0b011], [(0, 1)], limit=2)   # fits: merge
    [0, 0]
    """
    k = len(masks)
    mask = list(masks)
    succ = [0] * k
    pred = [0] * k
    for u, v in edges:
        if u == v:
            continue
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    alive = [True] * k
    group = list(range(k))

    while True:
        live = [i for i in range(k) if alive[i]]
        if len(live) < 2:
            break
        reach = _reach_masks(succ, k)
        best: Optional[Tuple[int, int]] = None
        best_key = None
        for ia, a in enumerate(live):
            for b in live[ia + 1 :]:
                union = mask[a] | mask[b]
                if union.bit_count() > limit:
                    continue
                if path_through_third(reach, succ, a, b):
                    continue
                shared = (mask[a] & mask[b]).bit_count()
                key = (-shared, union.bit_count())
                if best_key is None or key < best_key:
                    best, best_key = (a, b), key
        if best is None:
            break
        a, b = best
        # Merge b into a.
        alive[b] = False
        for i in range(k):
            if group[i] == b:
                group[i] = a
        mask[a] |= mask[b]
        succ[a] = (succ[a] | succ[b]) & ~((1 << a) | (1 << b))
        pred[a] = (pred[a] | pred[b]) & ~((1 << a) | (1 << b))
        bbit = 1 << b
        abit = 1 << a
        for i in range(k):
            if succ[i] & bbit:
                succ[i] = (succ[i] & ~bbit) | (abit if i != a else 0)
            if pred[i] & bbit:
                pred[i] = (pred[i] & ~bbit) | (abit if i != a else 0)
        succ[b] = pred[b] = 0

    # Compact ids.
    remap = {}
    out = []
    for i in range(k):
        g = group[i]
        if g not in remap:
            remap[g] = len(remap)
        out.append(remap[g])
    return out


def merge_assignment(
    graph: GateGraph, assignment: Sequence[int], limit: int
) -> List[int]:
    """Run the merge phase on a gate->part map (part ids ``0..k-1``).

    The parts' masks and edges are those of the quotient
    ``graph.contract(assignment)``; the result sends each gate to its
    merged cluster.  dagP's final phase and the cutter's boundary removal
    are this one function.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> graph = GateGraph.from_circuit(qc)
    >>> merge_assignment(graph, [0, 1, 2], limit=2)
    [0, 0, 1]
    """
    quotient = graph.contract(assignment, max(assignment) + 1)
    edges = [(u, v) for u, vs in enumerate(quotient.succ) for v in vs]
    group = greedy_merge(quotient.qmask, edges, limit)
    return [group[p] for p in assignment]
