"""Acyclicity-preserving FM-style refinement of a bisection.

Invariant: side 0 precedes side 1 (every crossing edge points 0 -> 1).
A node may move 0->1 only if it has no successor left in side 0, and 1->0
only if it has no predecessor in side 1 — the boundary-move legality rule.
Greedy passes apply the best cost-improving legal move until a pass makes
no progress.  Cost is the lexicographic bisection cost (max side working
set, total working set, imbalance), tracked incrementally through per-side
qubit reference counters.
"""

from __future__ import annotations

from typing import List, Tuple

from ...dag import GateGraph

__all__ = ["refine_bisection", "RefineState"]


class RefineState:
    """Incremental bookkeeping for bisection refinement."""

    def __init__(self, sub: GateGraph, labels: List[int]) -> None:
        self.sub = sub
        self.labels = labels
        n = sub.num_nodes
        nq = max((m.bit_length() for m in sub.qmask), default=0)
        self.nq = nq
        self.qcnt = [[0] * nq, [0] * nq]
        self.weights = [0, 0]
        self.ws = [0, 0]
        # Legality counters.
        self.succ0 = [0] * n  # successors in side 0
        self.pred1 = [0] * n  # predecessors in side 1
        for v in range(n):
            s = labels[v]
            self.weights[s] += sub.weight[v]
            m = sub.qmask[v]
            q = 0
            while m:
                if m & 1:
                    if self.qcnt[s][q] == 0:
                        self.ws[s] += 1
                    self.qcnt[s][q] += 1
                m >>= 1
                q += 1
        for v in range(n):
            for w in sub.succ[v]:
                if labels[w] == 0:
                    self.succ0[v] += 1
                if labels[v] == 1:
                    self.pred1[w] += 1

    # -- cost -------------------------------------------------------------

    def cost(self) -> Tuple[int, int, int]:
        return (
            max(self.ws[0], self.ws[1]),
            self.ws[0] + self.ws[1],
            abs(self.weights[0] - self.weights[1]),
        )

    def cost_after_move(self, v: int) -> Tuple[int, int, int]:
        """Cost if ``v`` switched sides (no mutation)."""
        s = self.labels[v]
        t = 1 - s
        ws_s, ws_t = self.ws[s], self.ws[t]
        m = self.sub.qmask[v]
        q = 0
        while m:
            if m & 1:
                if self.qcnt[s][q] == 1:
                    ws_s -= 1
                if self.qcnt[t][q] == 0:
                    ws_t += 1
            m >>= 1
            q += 1
        w_s = self.weights[s] - self.sub.weight[v]
        w_t = self.weights[t] + self.sub.weight[v]
        return (max(ws_s, ws_t), ws_s + ws_t, abs(w_s - w_t))

    # -- legality / mutation --------------------------------------------------

    def legal(self, v: int) -> bool:
        """True when flipping ``v`` keeps the 0-before-1 invariant and does
        not empty a side."""
        s = self.labels[v]
        if self.weights[s] - self.sub.weight[v] <= 0:
            return False
        if s == 0:
            return self.succ0[v] == 0
        return self.pred1[v] == 0

    def apply(self, v: int) -> None:
        s = self.labels[v]
        t = 1 - s
        self.labels[v] = t
        self.weights[s] -= self.sub.weight[v]
        self.weights[t] += self.sub.weight[v]
        m = self.sub.qmask[v]
        q = 0
        while m:
            if m & 1:
                self.qcnt[s][q] -= 1
                if self.qcnt[s][q] == 0:
                    self.ws[s] -= 1
                if self.qcnt[t][q] == 0:
                    self.ws[t] += 1
                self.qcnt[t][q] += 1
            m >>= 1
            q += 1
        if s == 0:  # v moved 0 -> 1
            for p in self.sub.pred[v]:
                self.succ0[p] -= 1
            for w in self.sub.succ[v]:
                self.pred1[w] += 1
        else:  # v moved 1 -> 0
            for p in self.sub.pred[v]:
                self.succ0[p] += 1
            for w in self.sub.succ[v]:
                self.pred1[w] -= 1


def refine_bisection(
    sub: GateGraph, labels: List[int], max_passes: int = 8
) -> List[int]:
    """Greedy best-move refinement; returns the improved labels (mutated)."""
    state = RefineState(sub, labels)
    n = sub.num_nodes
    for _ in range(max_passes):
        improved = False
        for _ in range(max(8, n)):
            cur = state.cost()
            best_v = None
            best_cost = cur
            for v in range(n):
                if not state.legal(v):
                    continue
                c = state.cost_after_move(v)
                if c < best_cost:
                    best_cost, best_v = c, v
            if best_v is None:
                break
            state.apply(best_v)
            improved = True
        if not improved:
            break
    return state.labels
