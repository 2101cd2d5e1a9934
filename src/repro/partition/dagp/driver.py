"""dagP driver: multilevel recursive bisection + merge (Sec. IV-B3).

Differences from the published dagP tool that this re-implementation keeps
(the paper's "major modifications"):

* the **objective** is the number of parts, not edge cut — recursion stops
  as soon as a sub-graph's working set fits ``Lm``;
* each phase reasons about **working-set size** (distinct qubits), computed
  incrementally from qubit bitmasks;
* a **final merging phase** glues sibling parts back together while the
  quotient stays acyclic and under the limit;
* weight balance is relaxed (the paper sets imbalance ``eps <= 1.5``).

Only a side that is bisected again is induced as a graph; a side that
fits is a leaf, its gate ids read off the bisected graph's node list.
Only the candidate returned is built into a ``Partition``.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterator, List, Sequence, Tuple

from ...circuits.circuit import QuantumCircuit
from ...config import check_count
from ...dag import GateGraph
from ..base import Partition, PartitionError
from ..merge import merge_assignment
from .bisect import initial_bisection
from .coarsen import coarsen
from .ggg import greedy_grow_assignment
from .refine import refine_bisection

__all__ = ["DagPPartitioner"]


class DagPPartitioner:
    """The paper's ``dagP`` strategy: multilevel acyclic partitioning.

    Coarsen the gate DAG, recursively bisect with FM refinement, then
    greedily merge compatible parts — the strongest of the three
    heuristics on the paper's Table-III/IV circuits.  An instance holds
    configuration only, so one may be shared between threads.

    >>> from repro.circuits.generators import qft
    >>> p = DagPPartitioner().partition(qft(6), limit=4)
    >>> p.strategy, p.max_working_set() <= 4
    ('dagP', True)

    Parameters
    ----------
    seed:
        Seed for coarsening / bisection randomisation.
    refine_passes:
        FM passes per uncoarsening level.
    do_merge:
        Run the final merge phase (paper default: yes).
    use_ggg:
        Also try the greedy directed graph growing candidate and keep the
        better of the two (dagP's initial-partitioning repertoire includes
        GGG); disable to study recursive bisection in isolation.
    """

    name = "dagP"

    def __init__(
        self,
        seed: int = 3,
        refine_passes: int = 8,
        do_merge: bool = True,
        use_ggg: bool = True,
    ) -> None:
        self.seed = seed
        self.refine_passes = refine_passes
        self.do_merge = do_merge
        self.use_ggg = use_ggg

    # -- public API -------------------------------------------------------

    def partition(self, circuit: QuantumCircuit, limit: int) -> Partition:
        check_count("limit", limit)
        for i, g in enumerate(circuit):
            if g.num_qubits > limit:
                raise PartitionError(
                    f"gate {i} ({g.name}) touches {g.num_qubits} qubits; "
                    f"cannot fit limit {limit}"
                )
        n_gates = len(circuit)
        if n_gates == 0:
            return Partition(circuit.num_qubits, 0, limit, self.name, ())
        root = GateGraph.from_circuit(circuit)

        # Candidate 1: multilevel recursive bisection.  Small instances are
        # cheap enough to retry under a few coarsening/bisection seeds (the
        # published dagP tool likewise runs several randomised passes).
        candidates = []
        whole = root.working_set_size() <= limit
        for s in range(3 if n_gates <= 500 else 1):
            assignment = [-1] * n_gates
            leaves = [range(n_gates)] if whole else self._leaves(
                root, range(n_gates), limit, self.seed + s
            )
            for pid, gates in enumerate(leaves):
                for g in gates:
                    assignment[g] = pid
            candidates.append(assignment)
        if self.use_ggg:
            # Candidate 2: greedy directed graph growing (global frontier
            # view); ``root`` has one node per gate.
            candidates.append(greedy_grow_assignment(root, limit))

        if self.do_merge:
            candidates = [merge_assignment(root, a, limit) for a in candidates]
        # The first candidate with the fewest parts; only it is built.
        best = min(candidates, key=lambda assignment: len(set(assignment)))
        return Partition.from_assignment(circuit, best, limit, self.name, graph=root)

    # -- recursion --------------------------------------------------------

    def _leaves(
        self, sub: GateGraph, gates: Sequence[int], limit: int, seed: int
    ) -> Iterator[Sequence[int]]:
        """The gate ids of each sub-graph of ``sub`` (which does not fit
        ``limit``) that fits it, in a topological order; node ``v`` of
        ``sub`` is gate ``gates[v]``."""
        # Side 0 precedes side 1; recursing 0 first numbers parts in a
        # topological order for free.
        for nodes in self._bisect(sub, seed):
            side = [gates[v] for v in nodes]
            if reduce(or_, map(sub.qmask.__getitem__, nodes)).bit_count() <= limit:
                yield side  # a leaf: no graph is built for it
            else:
                yield from self._leaves(sub.induce(nodes), side, limit, seed)

    def _bisect(self, sub: GateGraph, seed: int) -> Tuple[List[int], List[int]]:
        """The node lists of ``sub``'s two sides, each in id order."""
        graphs, maps = coarsen(sub, seed=seed)
        labels = initial_bisection(graphs[-1], seed=seed)
        # Refine at the coarsest level, then project back through the rest.
        labels = refine_bisection(
            graphs[-1], labels, self.refine_passes, zip(graphs[-2::-1], maps[::-1])
        )
        sides: Tuple[List[int], List[int]] = ([], [])
        for v, side in enumerate(labels):
            sides[side].append(v)
        if not (sides[0] and sides[1]):
            raise PartitionError("bisection produced an empty side")
        return sides
