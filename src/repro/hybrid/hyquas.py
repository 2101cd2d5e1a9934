"""Hybrid HiSVSIM + HyQuas estimation (Sec. VI, Tables III and IV).

The paper's experiment: partition qaoa-28 with each strategy, remap each
part's qubits into the 26-qubit local model of a 4-GPU-node run, execute
parts with single-GPU HyQuas, and estimate end-to-end time as HiSVSIM's
communication plus the GPU computation.  The baseline is HyQuas's own
multi-GPU mode, whose chunked execution communicates at every chunk switch
without HiSVSIM's minimal-motion layouts.

Here the GPU is replaced by :class:`~repro.hybrid.gpu_model.GPUModel` and
the fabric by the analytic exchange model, reproducing both tables' shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..partition.base import Partition, Partitioner
from ..partition.natural import NaturalPartitioner
from ..runtime.machine import MachineModel
from ..runtime.metrics import RunReport
from ..dist.hisvsim import HiSVSimEngine
from .gpu_model import V100, GPUModel

__all__ = [
    "GPU_CLUSTER",
    "HyQuasChunkPartitioner",
    "PartBreakdownRow",
    "HybridEstimate",
    "estimate_hybrid",
    "estimate_hyquas_baseline",
]

GPU_CLUSTER = MachineModel(
    net_alpha=5e-6,
    net_beta=2.5e9,  # IB through host staging: GPU<->host<->NIC
    congestion=0.3,
)
"""4-GPU-node cluster profile (V100 nodes, InfiniBand via host memory)."""


class HyQuasChunkPartitioner(NaturalPartitioner):
    """HyQuas's greedy chunking: scan gates, cut when the active qubit set
    would exceed the limit — structurally the paper's ``Nat`` strategy
    (HyQuas "partitions the gates in a greedy fashion, which contain no
    more than a given number of active qubits")."""

    name = "HyQuas-chunk"


@dataclass(frozen=True)
class PartBreakdownRow:
    """One row of Table III."""

    part: int
    qubits: int
    gates: int
    gpu_seconds: float


@dataclass
class HybridEstimate:
    """Tables III/IV bundle for one strategy."""

    strategy: str
    num_parts: int
    rows: List[PartBreakdownRow] = field(default_factory=list)
    gpu_seconds: float = 0.0
    comm_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.gpu_seconds + self.comm_seconds


def estimate_hybrid(
    circuit: QuantumCircuit,
    partition: Partition,
    num_gpus: int,
    gpu: GPUModel = V100,
    machine: MachineModel = GPU_CLUSTER,
) -> HybridEstimate:
    """HiSVSIM-communication + HyQuas-computation estimate (Table IV rows).

    Computation: each part's gates run on the ``2^l`` local state
    (``l = n - log2(num_gpus)``) through the GPU model — the paper's step
    of padding each part file to the local qubit count.  Communication:
    the dry-run HiSVSIM engine's layout exchanges on the GPU fabric.
    """
    n = circuit.num_qubits
    p = num_gpus.bit_length() - 1
    if 1 << p != num_gpus:
        raise ValueError("num_gpus must be a power of two")
    l = n - p
    est = HybridEstimate(strategy=partition.strategy, num_parts=partition.num_parts)
    for i, part in enumerate(partition.parts):
        gates = [circuit[g] for g in part.gate_indices]
        t = gpu.part_time(l, gates)
        est.rows.append(
            PartBreakdownRow(
                part=i,
                qubits=part.working_set_size,
                gates=len(gates),
                gpu_seconds=t,
            )
        )
        est.gpu_seconds += t
    engine = HiSVSimEngine(num_gpus, machine, dry_run=True, fuse=False)
    _, report = engine.run(circuit, partition)
    est.comm_seconds = report.comm_seconds
    return est


def estimate_hyquas_baseline(
    circuit: QuantumCircuit,
    num_gpus: int,
    gpu: GPUModel = V100,
    machine: MachineModel = GPU_CLUSTER,
    chunk_limit: Optional[int] = None,
) -> HybridEstimate:
    """Plain multi-GPU HyQuas estimate (Table IV's last row).

    HyQuas chunks greedily and redistributes the state at every chunk
    switch with its default (non-minimal) layouts: each switch moves
    essentially the whole distributed state, i.e. a full-shard exchange
    per rank, which is what its published multi-GPU traces show.
    """
    n = circuit.num_qubits
    p = num_gpus.bit_length() - 1
    if 1 << p != num_gpus:
        raise ValueError("num_gpus must be a power of two")
    l = n - p
    if chunk_limit is None:
        chunk_limit = l
    partition = HyQuasChunkPartitioner().partition(circuit, chunk_limit)
    est = HybridEstimate(strategy="HyQuas", num_parts=partition.num_parts)
    for i, part in enumerate(partition.parts):
        gates = [circuit[g] for g in part.gate_indices]
        t = gpu.part_time(l, gates)
        est.rows.append(
            PartBreakdownRow(i, part.working_set_size, len(gates), t)
        )
        est.gpu_seconds += t
    # One full-shard exchange per chunk switch.
    switches = max(0, partition.num_parts - 1)
    shard_bytes = 16 << l
    est.comm_seconds = switches * machine.exchange_time(
        shard_bytes, num_gpus - 1, num_gpus
    )
    return est
