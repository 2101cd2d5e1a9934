"""Accounting containers: communication, compute and run reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["CommStats", "ComputeStats", "RunReport"]


@dataclass
class CommStats:
    """Traffic of one (or an accumulation of) exchange step(s).

    ``max_bytes_per_rank`` / ``max_msgs_per_rank`` drive the alpha-beta
    time model: within a step ranks proceed in parallel, so steps are
    gated by the busiest rank — accumulation therefore *sums the maxima
    of each step* rather than taking a global max.
    """

    total_bytes: int = 0
    total_msgs: int = 0
    steps: int = 0
    max_bytes_per_rank: float = 0.0
    max_msgs_per_rank: float = 0.0

    def add_step(
        self, total_bytes: int, total_msgs: int, max_bytes: int, max_msgs: int
    ) -> None:
        self.total_bytes += total_bytes
        self.total_msgs += total_msgs
        self.steps += 1
        self.max_bytes_per_rank += max_bytes
        self.max_msgs_per_rank += max_msgs

    def merge(self, other: "CommStats") -> None:
        self.total_bytes += other.total_bytes
        self.total_msgs += other.total_msgs
        self.steps += other.steps
        self.max_bytes_per_rank += other.max_bytes_per_rank
        self.max_msgs_per_rank += other.max_msgs_per_rank


@dataclass
class ComputeStats:
    """Accumulated local work."""

    flops: float = 0.0
    bytes_swept: float = 0.0
    gates: int = 0

    def merge(self, other: "ComputeStats") -> None:
        self.flops += other.flops
        self.bytes_swept += other.bytes_swept
        self.gates += other.gates


@dataclass
class RunReport:
    """Outcome of one simulated engine run.

    ``comp_seconds`` / ``comm_seconds`` are model times; ``wall_seconds``
    is the real host time spent executing the run (useful for sanity but
    not for paper comparisons — the host is not a cluster).
    """

    engine: str
    circuit: str
    strategy: str
    num_qubits: int
    num_ranks: int
    comp_seconds: float = 0.0
    comm_seconds: float = 0.0
    wall_seconds: float = 0.0
    comm: CommStats = field(default_factory=CommStats)
    compute: ComputeStats = field(default_factory=ComputeStats)
    num_parts: int = 0

    @property
    def total_seconds(self) -> float:
        return self.comp_seconds + self.comm_seconds

    @property
    def comm_ratio(self) -> float:
        t = self.total_seconds
        return self.comm_seconds / t if t > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.engine}/{self.strategy} {self.circuit} "
            f"n={self.num_qubits} R={self.num_ranks}: "
            f"total={self.total_seconds:.4f}s "
            f"(comp={self.comp_seconds:.4f}, comm={self.comm_seconds:.4f}, "
            f"ratio={self.comm_ratio:.1%}), parts={self.num_parts}, "
            f"bytes={self.comm.total_bytes:,}"
        )
