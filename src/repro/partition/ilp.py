"""Optimal acyclic partitioning via integer linear programming (Sec. V-A).

The paper evaluates dagP's quality against an ILP-based optimum of the
*modified* acyclic partitioning problem (minimise part count subject to
working-set limits).  This formulation, solved with scipy's HiGHS backend:

* ``x[v,p]``: gate ``v`` in part ``p``  (parts indexed 0..K-1),
* ``y[q,p]``: qubit ``q`` used by part ``p``,
* ``z[p]``:   part ``p`` non-empty,
* precedence: for each dependency ``u -> v``, ``part(u) <= part(v)``
  (part indices double as the topological order — WLOG for acyclic
  partitions),
* working set: ``sum_q y[q,p] <= Lm``,
* objective: ``min sum_p z[p]`` with ``z`` forced to a prefix.

Exponential worst case; intended for the small instances of the paper's
48-of-52-optimal experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..dag import gate_dependency_edges
from .base import Partition, PartitionError
from .natural import NaturalPartitioner

__all__ = ["ILPPartitioner", "ILPResult"]


@dataclass
class ILPResult:
    """Outcome of an ILP solve: the partition (if feasible), whether the
    solver proved optimality, the part count and the solver status.

    >>> ILPResult(partition=None, optimal=False, num_parts=0,
    ...           status="infeasible").optimal
    False
    """

    partition: Optional[Partition]
    optimal: bool
    num_parts: int
    status: str


class ILPPartitioner:
    """Exact (or time-limited) acyclic partitioner.

    Minimises the part count via a HiGHS mixed-integer program; falls
    back to reporting non-optimality when the time budget runs out.
    scipy is the one dependency only this class has, so it is imported
    on the first solve (``pip install hisvsim-repro[ilp]``).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> res = ILPPartitioner(time_limit=10).solve(qc, limit=2)
    >>> res.num_parts, res.partition.strategy
    (2, 'ILP')

    Parameters
    ----------
    time_limit:
        HiGHS wall-clock budget in seconds (None = unlimited).
    max_parts:
        Upper bound K on parts; defaults to a fast heuristic's part count
        (an optimum never needs more).
    """

    name = "ILP"

    def __init__(self, time_limit: Optional[float] = 60.0, max_parts: Optional[int] = None):
        self.time_limit = time_limit
        self.max_parts = max_parts

    def solve(self, circuit: QuantumCircuit, limit: int) -> ILPResult:
        try:
            from scipy.optimize import Bounds, LinearConstraint, milp
            from scipy.sparse import lil_matrix
        except ImportError as exc:
            raise ImportError(
                "ILPPartitioner needs scipy: pip install 'hisvsim-repro[ilp]'"
            ) from exc
        n = len(circuit)
        if n == 0:
            return ILPResult(
                Partition(circuit.num_qubits, 0, limit, self.name, ()),
                True,
                0,
                "empty",
            )
        for i, g in enumerate(circuit):
            if g.num_qubits > limit:
                raise PartitionError(f"gate {i} wider than limit")

        if self.max_parts is not None:
            K = self.max_parts
        else:
            K = NaturalPartitioner().partition(circuit, limit).num_parts
        K = max(K, 1)
        qubits = sorted({q for g in circuit for q in g.qubits})
        nq = len(qubits)
        qpos = {q: i for i, q in enumerate(qubits)}

        # Variable layout: x[v,p] (n*K) | y[q,p] (nq*K) | z[p] (K)
        nx, ny, nz = n * K, nq * K, K
        nvar = nx + ny + nz

        def xi(v: int, p: int) -> int:
            return v * K + p

        def yi(q: int, p: int) -> int:
            return nx + q * K + p

        def zi(p: int) -> int:
            return nx + ny + p

        lbs: List[float] = []
        ubs: List[float] = []
        A = lil_matrix((0, nvar))

        def add_row(coeffs, lb, ub):
            nonlocal A
            A.resize((A.shape[0] + 1, nvar))
            r = A.shape[0] - 1
            for j, c in coeffs:
                A[r, j] = c
            lbs.append(lb)
            ubs.append(ub)

        # 1. Each gate in exactly one part.
        for v in range(n):
            add_row([(xi(v, p), 1.0) for p in range(K)], 1.0, 1.0)
        # 2. Precedence: part(u) <= part(v).
        for u, v in gate_dependency_edges(circuit):
            coeffs = [(xi(u, p), float(p)) for p in range(K)]
            coeffs += [(xi(v, p), -float(p)) for p in range(K)]
            add_row(coeffs, -np.inf, 0.0)
        # 3. Qubit usage linking: x[v,p] <= y[q,p].
        for v in range(n):
            for q in circuit[v].qubits:
                for p in range(K):
                    add_row([(xi(v, p), 1.0), (yi(qpos[q], p), -1.0)], -np.inf, 0.0)
        # 4. Working-set limit per part.
        for p in range(K):
            add_row([(yi(q, p), 1.0) for q in range(nq)], 0.0, float(limit))
        # 5. Non-empty marker: sum_v x[v,p] <= n * z[p].
        for p in range(K):
            coeffs = [(xi(v, p), 1.0) for v in range(n)] + [(zi(p), -float(n))]
            add_row(coeffs, -np.inf, 0.0)
        # 6. Used parts form a prefix: z[p+1] <= z[p].
        for p in range(K - 1):
            add_row([(zi(p + 1), 1.0), (zi(p), -1.0)], -np.inf, 0.0)

        c = np.zeros(nvar)
        c[nx + ny :] = 1.0  # minimise number of used parts
        constraints = LinearConstraint(A.tocsr(), np.array(lbs), np.array(ubs))
        integrality = np.ones(nvar)
        options = {}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(np.zeros(nvar), np.ones(nvar)),
            options=options,
        )
        if res.x is None:
            return ILPResult(None, False, -1, res.message)
        xsol = res.x[:nx].reshape(n, K)
        assignment = [int(np.argmax(xsol[v])) for v in range(n)]
        part = Partition.from_assignment(circuit, assignment, limit, self.name)
        optimal = bool(res.status == 0)
        return ILPResult(part, optimal, part.num_parts, res.message)

    def partition(self, circuit: QuantumCircuit, limit: int) -> Partition:
        result = self.solve(circuit, limit)
        if result.partition is None:
            raise PartitionError(f"ILP failed: {result.status}")
        return result.partition
