"""Table III — QAOA partitioning breakdown with GPU part times.

The paper partitions qaoa-28 with each strategy for a 4-GPU run
(26 local qubits) and reports per-part qubit counts, gate counts and
single-GPU HyQuas execution times.  Shape to reproduce: dagP has the
fewest parts, total gates always match the input circuit, and total GPU
time is similar across strategies (146-366 ms per part at paper scale;
the paper's totals over 1652 gates: dagP 2 parts / 329.8 ms, DFS 3 /
337.7 ms, Nat 6 / 365.9 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.tables import render_table
from ..circuits.generators import qaoa
from ..hybrid.gpu_model import V100, GPUModel
from ..hybrid.hyquas import HybridEstimate, estimate_hybrid
from .common import STRATEGY_ORDER, Scale, partition_cached

__all__ = ["Table3Result", "run"]


@dataclass
class Table3Result:
    estimates: Dict[str, HybridEstimate]
    num_qubits: int
    num_gpus: int
    total_gates: int

    def table(self) -> str:
        rows = []
        for strategy in STRATEGY_ORDER:
            est = self.estimates[strategy]
            for row in est.rows:
                rows.append(
                    (
                        strategy,
                        f"P{row.part}",
                        row.qubits,
                        row.gates,
                        round(1e3 * row.gpu_seconds, 1),
                    )
                )
            rows.append(
                (
                    strategy,
                    "total",
                    "",
                    sum(r.gates for r in est.rows),
                    round(1e3 * est.gpu_seconds, 1),
                )
            )
        return render_table(
            ["strategy", "part", "qubits", "gates", "GPU time (ms)"],
            rows,
            title=(
                f"Table III: qaoa-{self.num_qubits} partitioning breakdown "
                f"({self.num_gpus} GPUs)"
            ),
        )


def run(
    num_qubits: int = 28,
    num_gpus: int = 4,
    gpu: GPUModel = V100,
    scale: Optional[Scale] = None,
) -> Table3Result:
    """Defaults reproduce the paper's qaoa-28 on 4 V100 nodes."""
    del scale  # partition + model only; affordable at paper width
    circuit = qaoa(num_qubits)
    circuit.name = f"qaoa_{num_qubits}"
    local = num_qubits - (num_gpus.bit_length() - 1)
    estimates: Dict[str, HybridEstimate] = {}
    for strategy in STRATEGY_ORDER:
        partition = partition_cached(circuit, strategy, local)
        estimates[strategy] = estimate_hybrid(circuit, partition, num_gpus, gpu=gpu)
    return Table3Result(
        estimates=estimates,
        num_qubits=num_qubits,
        num_gpus=num_gpus,
        total_gates=len(circuit),
    )
