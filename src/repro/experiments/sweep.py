"""The shared (circuit x ranks x algorithm) sweep behind Figs. 5-9.

One sweep produces every RunReport the multi-node figures need: the three
HiSVSIM strategies plus the IQS baseline, for every circuit of the suite
and every rank count of its group.  Results are cached per scale so the
five figure modules do not recompute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dist.hisvsim import HiSVSimEngine
from ..dist.iqs import IQSEngine
from ..runtime.metrics import RunReport
from .common import (
    SCALES,
    STRATEGY_ORDER,
    Scale,
    partition_cached,
    ranks_for,
    suite_circuits,
)

__all__ = ["SweepResult", "run_sweep", "ALGORITHMS"]

ALGORITHMS = STRATEGY_ORDER + ("Intel",)


@dataclass
class SweepResult:
    """All reports of one sweep, indexed by (circuit, ranks, algorithm)."""

    scale: Scale
    reports: Dict[Tuple[str, int, str], RunReport]

    def circuits(self) -> List[str]:
        return sorted({k[0] for k in self.reports})

    def ranks(self, circuit: str) -> List[int]:
        return sorted({k[1] for k in self.reports if k[0] == circuit})

    def get(self, circuit: str, ranks: int, algorithm: str) -> RunReport:
        return self.reports[(circuit, ranks, algorithm)]

    def improvement_factor(self, circuit: str, ranks: int, strategy: str) -> float:
        """Paper Fig. 5 metric: IQS total / strategy total."""
        iqs = self.get(circuit, ranks, "Intel").total_seconds
        ours = self.get(circuit, ranks, strategy).total_seconds
        return iqs / ours if ours > 0 else float("inf")


_SWEEP_CACHE: Dict[str, SweepResult] = {}


def run_sweep(scale: Optional[Scale] = None) -> SweepResult:
    """Run (or fetch) the full multi-node sweep for ``scale``."""
    scale = scale or SCALES["small"]
    if scale.name in _SWEEP_CACHE:
        return _SWEEP_CACHE[scale.name]
    circuits = suite_circuits(scale.base_qubits)
    reports: Dict[Tuple[str, int, str], RunReport] = {}
    for key, circuit in circuits.items():
        for ranks in ranks_for(key, scale):
            p_bits = ranks.bit_length() - 1
            local = circuit.num_qubits - p_bits
            max_arity = max(g.num_qubits for g in circuit)
            if local < max(2, max_arity):
                continue  # rank count infeasible at this width
            for strategy in STRATEGY_ORDER:
                partition = partition_cached(circuit, strategy, local)
                engine = HiSVSimEngine(
                    ranks, machine=scale.machine, dry_run=scale.dry_run
                )
                _, rep = engine.run(circuit, partition)
                reports[(key, ranks, strategy)] = rep
            iqs = IQSEngine(ranks, machine=scale.machine, dry_run=scale.dry_run)
            _, rep = iqs.run(circuit)
            reports[(key, ranks, "Intel")] = rep
    result = SweepResult(scale=scale, reports=reports)
    _SWEEP_CACHE[scale.name] = result
    return result
