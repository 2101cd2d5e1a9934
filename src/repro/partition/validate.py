"""Independent partition validation.

Re-checks every property the executors rely on, from scratch and without
trusting the partitioner's own bookkeeping:

1. coverage — every gate in exactly one part;
2. working sets — each part's distinct-qubit count is under the limit and
   matches the stored ``Part.qubits``;
3. acyclicity — the quotient graph over qubit-timeline dependencies is a
   DAG **and** the stored part order is one of its topological orders;
4. intra-part order — gates inside a part keep their original order.
"""

from __future__ import annotations

from typing import List

from ..circuits.circuit import QuantumCircuit
from ..dag import gate_dependency_edges
from .base import Partition

__all__ = ["validate_partition", "ValidationReport"]


class ValidationReport:
    """Collected validation problems (empty == valid).

    >>> rep = ValidationReport()
    >>> rep.ok
    True
    >>> rep.add("part 0: gate 3 missing")
    >>> rep.ok, len(rep.problems)
    (False, 1)
    """

    def __init__(self) -> None:
        self.problems: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str) -> None:
        self.problems.append(msg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.problems)} problems"
        return f"ValidationReport({status})"


def validate_partition(
    circuit: QuantumCircuit, partition: Partition, raise_on_error: bool = False
) -> ValidationReport:
    """Validate ``partition`` against ``circuit``; optionally raise.

    Checks gate coverage, intra-part order, working-set limits and
    quotient-graph acyclicity.

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> qc = qft(6)
    >>> validate_partition(qc, get_partitioner("dagP").partition(qc, 4)).ok
    True
    """
    rep = ValidationReport()
    n_gates = len(circuit)
    if partition.num_gates != n_gates:
        rep.add(f"gate count mismatch: {partition.num_gates} != {n_gates}")

    seen = [-1] * n_gates
    for pid, part in enumerate(partition.parts):
        # Intra-part order.
        if list(part.gate_indices) != sorted(part.gate_indices):
            rep.add(f"part {pid}: gates not in circuit order")
        qubits = set()
        for g in part.gate_indices:
            if not 0 <= g < n_gates:
                rep.add(f"part {pid}: gate index {g} out of range")
                continue
            if seen[g] != -1:
                rep.add(f"gate {g} in parts {seen[g]} and {pid}")
            seen[g] = pid
            qubits.update(circuit[g].qubits)
        if tuple(sorted(qubits)) != part.qubits:
            rep.add(f"part {pid}: stored qubit set mismatch")
        if len(qubits) > partition.limit:
            rep.add(
                f"part {pid}: working set {len(qubits)} exceeds limit "
                f"{partition.limit}"
            )
    missing = [g for g in range(n_gates) if seen[g] == -1]
    if missing:
        rep.add(f"uncovered gates: {missing[:10]}{'...' if len(missing) > 10 else ''}")

    # Acyclicity: every dependency must point to the same or a later part.
    if not missing:
        for u, v in gate_dependency_edges(circuit):
            if seen[u] > seen[v]:
                rep.add(
                    f"dependency violation: gate {u} (part {seen[u]}) "
                    f"precedes gate {v} (part {seen[v]})"
                )
                break

    if raise_on_error and not rep.ok:
        raise AssertionError("; ".join(rep.problems))
    return rep
