"""Partition quality metrics.

Quantifies what the paper's objective trades off: part count (bulk
read/write sweeps of the exponential state), DAG edge cut (locality of the
quotient), consecutive-part qubit overlap (what the distributed engine's
minimal-motion remap exploits — higher overlap means fewer moved
amplitudes), and the working-set fill factor (how well parts use the
allowed inner state size).

Cost accounting is fusion-aware: each part's gate list is run through the
:mod:`repro.sv.fusion` grouping planner (no matrices are built) and both
the per-gate and the post-fusion kernel-sweep counts and flop totals are
reported, so partition quality reflects what a compiled execution
actually pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..circuits.circuit import QuantumCircuit
from ..dag import gate_dependency_edges
from ..sv.fusion import DEFAULT_MAX_FUSED_QUBITS, plan_fusion_groups
from ..sv.kernels import flops_for_gate
from .base import Partition

__all__ = ["PartitionMetrics", "evaluate_partition"]


@dataclass(frozen=True)
class PartitionMetrics:
    """Aggregate quality numbers for one partition."""

    num_parts: int
    max_working_set: int
    mean_working_set: float
    fill_factor: float  # mean ws / limit
    edge_cut: int  # dependency edges crossing parts
    edge_cut_fraction: float
    mean_consecutive_overlap: float  # |Q_i ∩ Q_{i+1}| averaged
    estimated_moved_fraction: float  # amplitudes remapped per switch (mean)
    gates_per_part_min: int
    gates_per_part_max: int
    # Fusion-aware cost accounting (full-state sweeps, Sec. III-A flops).
    sweeps_unfused: int = 0  # kernel sweeps at one per gate
    sweeps_fused: int = 0  # kernel sweeps after part-level fusion
    flops_unfused: int = 0
    flops_fused: int = 0

    @property
    def fusion_factor(self) -> float:
        """Gates per fused kernel sweep (1.0 when nothing fuses)."""
        return self.sweeps_unfused / self.sweeps_fused if self.sweeps_fused else 0.0

    def summary(self) -> str:
        return (
            f"parts={self.num_parts} maxws={self.max_working_set} "
            f"fill={self.fill_factor:.2f} cut={self.edge_cut} "
            f"({self.edge_cut_fraction:.1%}) "
            f"overlap={self.mean_consecutive_overlap:.1f} "
            f"moved/switch={self.estimated_moved_fraction:.1%} "
            f"sweeps={self.sweeps_unfused}->{self.sweeps_fused}"
        )


def evaluate_partition(
    circuit: QuantumCircuit,
    partition: Partition,
    *,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
) -> PartitionMetrics:
    """Compute :class:`PartitionMetrics` for a partition of ``circuit``.

    ``max_fused_qubits`` caps the fusion arity used for the fused cost
    columns, clipped to each part's working set.
    """
    k = partition.num_parts
    if k == 0:
        return PartitionMetrics(0, 0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0, 0)
    assignment = partition.assignment()
    edges = gate_dependency_edges(circuit)
    cut = sum(1 for u, v in edges if assignment[u] != assignment[v])

    ws = [p.working_set_size for p in partition.parts]
    overlaps: List[float] = []
    moved: List[float] = []
    for a, b in zip(partition.parts, partition.parts[1:]):
        qa, qb = set(a.qubits), set(b.qubits)
        inter = len(qa & qb)
        overlaps.append(float(inter))
        # Each qubit of the next working set not already local forces a
        # position swap; k swapped bit-pairs strand only 2^-k of the
        # amplitudes in place.
        incoming = len(qb - qa)
        moved.append(1.0 - 0.5**incoming if incoming else 0.0)

    n = circuit.num_qubits
    sweeps_unfused = partition.num_gates
    sweeps_fused = 0
    flops_unfused = 0
    flops_fused = 0
    for part in partition.parts:
        gates = [circuit[g] for g in part.gate_indices]
        for g in gates:
            flops_unfused += flops_for_gate(g.num_qubits, n, g.is_diagonal)
        cap = max(1, min(max_fused_qubits, part.working_set_size))
        for grp in plan_fusion_groups(gates, cap):
            sweeps_fused += 1
            flops_fused += flops_for_gate(len(grp.qubits), n, grp.diagonal)

    gpp = partition.gates_per_part()
    return PartitionMetrics(
        num_parts=k,
        max_working_set=max(ws),
        mean_working_set=sum(ws) / k,
        fill_factor=(sum(ws) / k) / partition.limit if partition.limit else 0.0,
        edge_cut=cut,
        edge_cut_fraction=cut / len(edges) if edges else 0.0,
        mean_consecutive_overlap=(
            sum(overlaps) / len(overlaps) if overlaps else 0.0
        ),
        estimated_moved_fraction=sum(moved) / len(moved) if moved else 0.0,
        gates_per_part_min=min(gpp),
        gates_per_part_max=max(gpp),
        sweeps_unfused=sweeps_unfused,
        sweeps_fused=sweeps_fused,
        flops_unfused=flops_unfused,
        flops_fused=flops_fused,
    )
