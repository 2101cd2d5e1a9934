"""Table IV — hybrid HiSVSIM+HyQuas end-to-end estimate.

Communication (HiSVSIM layout exchanges on the GPU fabric) + computation
(GPU model) per strategy, against plain multi-GPU HyQuas.  Paper shape:
comm orders dagP < DFS < Nat (0.5 / 1.0 / 2.4 s), computation nearly equal
(~0.33-0.37 s), and hybrid-dagP beats HyQuas (0.83 s vs 1.47 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.tables import render_table
from ..circuits.generators import qaoa
from ..hybrid.gpu_model import V100, GPUModel
from ..hybrid.hyquas import (
    GPU_CLUSTER,
    HybridEstimate,
    estimate_hybrid,
    estimate_hyquas_baseline,
)
from .common import STRATEGY_ORDER, Scale, partition_cached

__all__ = ["Table4Result", "run", "PAPER_TABLE4"]

# strategy -> (comm s, comp s, total s)
PAPER_TABLE4 = {
    "dagP": (0.5, 0.33, 0.83),
    "DFS": (1.0, 0.34, 1.34),
    "Nat": (2.4, 0.37, 2.77),
    "HyQuas": (None, None, 1.47),
}


@dataclass
class Table4Result:
    estimates: Dict[str, HybridEstimate]  # strategies + "HyQuas"
    num_qubits: int
    num_gpus: int

    def table(self) -> str:
        rows = []
        for name in list(STRATEGY_ORDER) + ["HyQuas"]:
            est = self.estimates[name]
            paper = PAPER_TABLE4[name]
            rows.append(
                (
                    name,
                    round(est.comm_seconds, 3),
                    round(est.gpu_seconds, 3),
                    round(est.total_seconds, 3),
                    paper[2],
                )
            )
        return render_table(
            ["strategy", "comm (s)", "comp (s)", "total (s)", "paper total (s)"],
            rows,
            title=(
                f"Table IV: hybrid qaoa-{self.num_qubits} estimate "
                f"({self.num_gpus} GPUs)"
            ),
        )


def run(
    num_qubits: int = 28,
    num_gpus: int = 4,
    gpu: GPUModel = V100,
    scale: Optional[Scale] = None,
) -> Table4Result:
    del scale
    circuit = qaoa(num_qubits)
    circuit.name = f"qaoa_{num_qubits}"
    local = num_qubits - (num_gpus.bit_length() - 1)
    estimates: Dict[str, HybridEstimate] = {}
    for strategy in STRATEGY_ORDER:
        partition = partition_cached(circuit, strategy, local)
        estimates[strategy] = estimate_hybrid(
            circuit, partition, num_gpus, gpu=gpu, machine=GPU_CLUSTER
        )
    estimates["HyQuas"] = estimate_hyquas_baseline(
        circuit, num_gpus, gpu=gpu, machine=GPU_CLUSTER
    )
    return Table4Result(
        estimates=estimates, num_qubits=num_qubits, num_gpus=num_gpus
    )
