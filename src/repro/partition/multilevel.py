"""Two-level (multi-level) partitioning (Sec. IV "Multi-level partitioning").

Level 1 sizes parts for the node-local state vector (``Lm = l`` local
qubits); each level-1 part is then re-partitioned with a second, smaller
limit chosen so the level-2 inner state vectors stay LLC-resident.  When a
level-1 part already fits the second limit, its level-2 partition is the
identity — the paper evaluates Fig. 10 only on circuits where the two
levels actually differ, and :attr:`MultilevelPartition.is_trivial`
exposes that predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from .base import Partition, Partitioner

__all__ = ["MultilevelPartition", "multilevel_partition"]


@dataclass(frozen=True)
class MultilevelPartition:
    """A level-1 partition plus one level-2 partition per level-1 part.

    Level-2 partitions index gates by their position **inside** the parent
    part's subcircuit (0..part.num_gates-1); executors remap back through
    ``outer.parts[i].gate_indices``.

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import NaturalPartitioner
    >>> qc, nat = qft(8), NaturalPartitioner()
    >>> ml = multilevel_partition(qc, nat.partition(qc, 6), nat, 4)
    >>> len(ml.inner) == ml.outer.num_parts
    True
    >>> ml.is_trivial, ml.total_inner_parts() >= ml.outer.num_parts
    (False, True)
    """

    outer: Partition
    inner: Tuple[Partition, ...]
    limit2: int

    @property
    def is_trivial(self) -> bool:
        """True when no level-1 part was split further."""
        return all(p.num_parts <= 1 for p in self.inner)

    def total_inner_parts(self) -> int:
        return sum(p.num_parts for p in self.inner)


def multilevel_partition(
    circuit: QuantumCircuit,
    outer: Partition,
    partitioner: Partitioner,
    limit2: int,
) -> MultilevelPartition:
    """Re-partition each part of ``outer``, the level-1 partition of
    ``circuit`` the caller holds, at ``limit2``.

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import NaturalPartitioner
    >>> qc, nat = qft(8), NaturalPartitioner()
    >>> ml = multilevel_partition(qc, nat.partition(qc, 6), nat, 4)
    >>> all(p.max_working_set() <= 4 for p in ml.inner)
    True
    """
    if limit2 > outer.limit:
        raise ValueError(
            f"limit2 must be <= the level-1 limit {outer.limit} (got {limit2})"
        )
    inner: List[Partition] = []
    for part in outer.parts:
        sub = circuit.subcircuit(part.gate_indices)
        # ``subcircuit`` keeps original gate order; re-index gates 0..m-1 by
        # building a fresh circuit of the same width.
        inner.append(partitioner.partition(sub, limit2))
    return MultilevelPartition(outer=outer, inner=tuple(inner), limit2=limit2)
