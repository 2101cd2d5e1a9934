"""Acyclicity-preserving FM-style refinement of a bisection.

Invariant: side 0 precedes side 1 (every crossing edge points 0 -> 1).
A node may move 0->1 only if it has no successor left in side 0, and 1->0
only if it has no predecessor in side 1 — the boundary-move legality rule,
so only the *boundary* (:attr:`RefineState.legal`) is ever scanned.  Each
step applies the legal move with the lowest cost below the current one
(lowest node id among equals) until none improves.  Cost is the
lexicographic bisection cost (max side working set, total working set,
imbalance), read off per-side qubit reference counters: a move frees the
qubits its node alone holds on its side and adds those the other side
does not touch yet — two popcounts.
"""

from __future__ import annotations

from itertools import chain
from operator import getitem
from typing import Iterable, List, Optional, Sequence, Tuple

from ...dag import GateGraph

__all__ = ["refine_bisection", "RefineState"]


class RefineState:
    """Incremental bookkeeping for bisection refinement.

    ``qcnt[s][q]`` counts the side-``s`` nodes on qubit ``q``;
    ``touched[s]`` / ``alone[s]`` are the masks of qubits with a count
    ``>= 1`` / ``== 1``.  ``legal`` holds every node the legality rule
    lets move; it is rebuilt per level by :meth:`refine`, the counters
    follow the labels through :meth:`project`.
    """

    def __init__(self, sub: GateGraph, labels: List[int]) -> None:
        self.sub = sub
        self.labels = labels
        nq = max((m.bit_length() for m in sub.qmask), default=0)
        self.qcnt = [[0] * nq, [0] * nq]
        self.touched = [0, 0]
        self.alone = [0, 0]
        self.weights = [0, 0]
        for s, m, w in zip(labels, sub.qmask, sub.weight):
            self.weights[s] += w
            self._count(s, m)
        self.legal: Optional[set] = self._boundary()
        self.converged = False
        self.split: List[int] = []

    def _count(self, s: int, m: int, step: int = 1) -> None:
        """``step`` more side-``s`` nodes on every qubit of ``m``."""
        cnt = self.qcnt[s]
        while m:
            b = m & -m
            m ^= b
            q = b.bit_length() - 1
            cnt[q] += step
            self.touched[s] = self.touched[s] | b if cnt[q] else self.touched[s] & ~b
            self.alone[s] = self.alone[s] | b if cnt[q] == 1 else self.alone[s] & ~b

    # -- cost / legality --------------------------------------------------

    def cost(self) -> Tuple[int, int, int]:
        c0, c1 = self.touched[0].bit_count(), self.touched[1].bit_count()
        return (max(c0, c1), c0 + c1, abs(self.weights[0] - self.weights[1]))

    def movable(self, v: int) -> bool:
        """True when flipping ``v`` keeps the 0-before-1 invariant."""
        labels = self.labels
        if labels[v]:
            return 1 not in map(labels.__getitem__, self.sub.pred[v])
        return 0 not in map(labels.__getitem__, self.sub.succ[v])

    def _boundary(self) -> set:
        """Every movable node: a side-0 node blocks its predecessors, a
        side-1 node its successors."""
        sub = self.sub
        blocked = map(getitem, zip(sub.pred, sub.succ), self.labels)
        return set(range(sub.num_nodes)).difference(chain.from_iterable(blocked))

    def best_move(self, nodes: Iterable[int]) -> Optional[int]:
        """The node of ``nodes`` (all movable) whose flip costs least and
        less than now, lowest id first; a flip may not empty a side."""
        labels, qmask, weight = self.labels, self.sub.qmask, self.sub.weight
        weights, touched, alone = self.weights, self.touched, self.alone
        ws = (touched[0].bit_count(), touched[1].bit_count())
        best = self.cost() + (-1,)
        for v in nodes:
            s = labels[v]
            t = 1 - s
            w = weight[v]
            if weights[s] <= w:
                continue
            m = qmask[v]
            left = ws[s] - (m & alone[s]).bit_count()
            gained = ws[t] + (m & ~touched[t]).bit_count()
            key = (
                max(left, gained),
                left + gained,
                abs(weights[s] - weights[t] - 2 * w),
                v,
            )
            if key < best:
                best = key
        return best[3] if best[3] >= 0 else None

    # -- mutation ---------------------------------------------------------

    def apply(self, v: int) -> None:
        """Flip ``v`` (movable).  It stays movable; neighbours it left
        behind may have become so, those it joined no longer are."""
        s = self.labels[v]
        self.labels[v] = 1 - s
        self.weights[s] -= self.sub.weight[v]
        self.weights[1 - s] += self.sub.weight[v]
        self._count(s, self.sub.qmask[v], -1)
        self._count(1 - s, self.sub.qmask[v])
        behind, joined = self.sub.pred[v], self.sub.succ[v]
        if s:
            behind, joined = joined, behind
        self.legal.difference_update(joined)
        self.legal.update(filter(self.movable, behind))

    def project(self, fine: GateGraph, mapping: Sequence[int]) -> None:
        """Re-express the state on the finer level ``mapping`` coarsens.

        Sides, weights and touched qubits carry over; a qubit's count
        grows where several members of one cluster share it.  Members of
        such split clusters are the only nodes that differ from a coarse
        node, so after a converged level only they can improve.
        """
        coarse = self.labels
        self.sub = fine
        self.labels = [coarse[c] for c in mapping]
        self.legal = None
        n = len(mapping)
        first = dict(zip(reversed(mapping), range(n - 1, -1, -1)))
        union = {}
        self.split = []
        for v in [v for v, c in enumerate(mapping) if first[c] != v]:
            c = mapping[v]
            seen = union.get(c, fine.qmask[first[c]])
            self._count(coarse[c], seen & fine.qmask[v])
            union[c] = seen | fine.qmask[v]
            self.split += (first[c], v)

    def refine(self, max_passes: int = 8) -> None:
        """Apply best moves until none improves (or ``max_passes`` rounds
        of ``max(8, n)`` moves are spent)."""
        n = self.sub.num_nodes
        if self.legal is None:  # fresh from project()
            if self.converged and (
                self.best_move(filter(self.movable, self.split)) is None
            ):
                return  # a stalled level costs its splits, not n + E
            self.legal = self._boundary()
        self.converged = False
        for _ in range(max_passes * max(8, n)):
            v = self.best_move(self.legal)
            if v is None:
                self.converged = True
                return
            self.apply(v)


def refine_bisection(
    sub: GateGraph,
    labels: List[int],
    max_passes: int = 8,
    finer: Iterable[Tuple[GateGraph, Sequence[int]]] = (),
) -> List[int]:
    """Greedy best-move refinement; returns the improved labels (mutated).

    ``finer`` lists ``(graph, node -> cluster map)`` per finer level,
    coarse to fine; the labels are projected through and refined at each,
    and the finest level's are returned.
    """
    state = RefineState(sub, labels)
    state.refine(max_passes)
    for fine, mapping in finer:
        state.project(fine, mapping)
        state.refine(max_passes)
    return state.labels
