"""Fig. 10 — single-level vs multi-level HiSVSIM.

For the circuits whose two partitioning levels actually differ (adder37,
qaoa, qft, qnn, qpe in the paper), compare the best single-level result at
the largest rank count with the multi-level run (level-2 limit sized to
keep inner state vectors LLC-resident).  Paper outcome: multi-level wins
everywhere except qnn (0.1 s regression), average 15.8% time reduction,
up to 1.47x over the best single level and 5.67x over IQS.

Multi-level only pays off when the per-rank shard *exceeds* the LLC, so
this experiment always runs at paper widths (>= 30 qubits) with dry-run
engines — affordable at any scale because no amplitudes are materialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.tables import render_table
from ..dist.hisvsim import HiSVSimEngine
from ..partition import get_partitioner
from ..partition.multilevel import multilevel_partition
from .common import (
    SCALES,
    STRATEGY_ORDER,
    Scale,
    partition_cached,
    ranks_for,
    suite_circuits,
)

__all__ = ["Fig10Row", "Fig10Result", "run", "FIG10_CIRCUITS"]

FIG10_CIRCUITS = ("adder37", "qaoa", "qft", "qnn", "qpe")

PAPER_SINGLE = {"adder37": 24.4, "qft": 14.0, "qaoa": 11.8, "qpe": 103.0, "qnn": 5.9}
PAPER_MULTI = {"adder37": 16.7, "qft": 12.7, "qaoa": 11.3, "qpe": 84.0, "qnn": 6.0}


@dataclass
class Fig10Row:
    circuit: str
    ranks: int
    strategy: str
    single_seconds: float
    multi_seconds: float
    factor_over_iqs_multi: float

    @property
    def reduction(self) -> float:
        if self.single_seconds <= 0:
            return 0.0
        return 1.0 - self.multi_seconds / self.single_seconds


@dataclass
class Fig10Result:
    rows: List[Fig10Row]

    def mean_reduction(self) -> float:
        vals = [r.reduction for r in self.rows]
        return sum(vals) / len(vals) if vals else 0.0

    def table(self) -> str:
        return render_table(
            [
                "circuit",
                "ranks",
                "strategy",
                "single (s)",
                "multi (s)",
                "reduction %",
                "multi vs IQS",
            ],
            [
                (
                    r.circuit,
                    r.ranks,
                    r.strategy,
                    round(r.single_seconds, 3),
                    round(r.multi_seconds, 3),
                    round(100 * r.reduction, 1),
                    round(r.factor_over_iqs_multi, 2),
                )
                for r in self.rows
            ],
            title=(
                "Fig 10: single vs multi-level "
                f"(mean reduction {100 * self.mean_reduction():.1f}%, paper 15.8%)"
            ),
        )


def run(scale: Optional[Scale] = None) -> Fig10Result:
    # Always paper widths + dry-run (see module docstring); the ambient
    # scale only supplies the machine model.
    from ..dist.iqs import IQSEngine

    scale = scale or SCALES["small"]
    machine = scale.machine
    paper = SCALES["paper"]
    circuits = suite_circuits(paper.base_qubits)
    llc_limit = int(math.log2(machine.l3_bytes / 16))
    rows: List[Fig10Row] = []
    for key in FIG10_CIRCUITS:
        circuit = circuits[key]
        ranks = max(ranks_for(key, paper))
        local = circuit.num_qubits - (ranks.bit_length() - 1)
        engine = HiSVSimEngine(ranks, machine, dry_run=True, fuse=False)
        # Best single-level strategy at the largest rank count.
        singles = {}
        for strategy in STRATEGY_ORDER:
            partition = partition_cached(circuit, strategy, local)
            _, rep = engine.run(circuit, partition)
            singles[strategy] = rep.total_seconds
        best_strategy = min(singles, key=singles.get)
        single = singles[best_strategy]
        limit2 = min(llc_limit, local - 1)
        if limit2 < 2:
            continue
        partition = partition_cached(circuit, best_strategy, local)
        ml = multilevel_partition(
            circuit, partition, get_partitioner(best_strategy), limit2
        )
        _, rep = engine.run(circuit, partition, multilevel=ml)
        _, iqs_rep = IQSEngine(ranks, machine=machine, dry_run=True).run(circuit)
        rows.append(
            Fig10Row(
                circuit=key,
                ranks=ranks,
                strategy=best_strategy,
                single_seconds=single,
                multi_seconds=rep.total_seconds,
                factor_over_iqs_multi=(
                    iqs_rep.total_seconds / rep.total_seconds
                    if rep.total_seconds > 0
                    else 0.0
                ),
            )
        )
    return Fig10Result(rows=rows)
