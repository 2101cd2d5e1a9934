"""Fig. 5 — improvement factor over Intel IQS.

For every circuit, rank count and strategy: ``IQS total / HiSVSIM total``.
Paper headline numbers: dagP ranges 1.15x (qpe) to 3.87x (adder37),
geometric mean 1.7x across rank configurations, rising to 2.5-3.9x
(avg 3.0x) for the >=35-qubit circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.tables import geomean, render_table
from .common import SCALES, STRATEGY_ORDER, Scale
from .sweep import SweepResult, run_sweep

__all__ = ["Fig5Row", "Fig5Result", "run"]

PAPER_RANGE_DAGP = (1.15, 3.87)
PAPER_GEOMEAN_DAGP = 1.7
PAPER_LARGE_MEAN = 3.0


@dataclass
class Fig5Row:
    circuit: str
    ranks: int
    strategy: str
    factor: float


@dataclass
class Fig5Result:
    rows: List[Fig5Row]
    sweep: SweepResult

    def factors(self, strategy: str) -> List[float]:
        return [r.factor for r in self.rows if r.strategy == strategy]

    def geomean(self, strategy: str) -> float:
        return geomean(self.factors(strategy))

    def geomean_at_max_ranks(self, strategy: str) -> float:
        """Paper's summary: factor at each circuit's largest rank count."""
        best: Dict[str, Fig5Row] = {}
        for r in self.rows:
            if r.strategy != strategy:
                continue
            if r.circuit not in best or r.ranks > best[r.circuit].ranks:
                best[r.circuit] = r
        return geomean([r.factor for r in best.values()])

    def table(self) -> str:
        return render_table(
            ["circuit", "ranks", "Nat", "DFS", "dagP"],
            [
                (
                    c,
                    ranks,
                    round(self._get(c, ranks, "Nat"), 2),
                    round(self._get(c, ranks, "DFS"), 2),
                    round(self._get(c, ranks, "dagP"), 2),
                )
                for c in self.sweep.circuits()
                for ranks in self.sweep.ranks(c)
            ],
            title=(
                "Fig 5: improvement factor over IQS "
                f"(dagP geomean={self.geomean('dagP'):.2f}, "
                f"paper {PAPER_GEOMEAN_DAGP})"
            ),
        )

    def _get(self, circuit: str, ranks: int, strategy: str) -> float:
        for r in self.rows:
            if (r.circuit, r.ranks, r.strategy) == (circuit, ranks, strategy):
                return r.factor
        raise KeyError((circuit, ranks, strategy))


def run(scale: Optional[Scale] = None) -> Fig5Result:
    scale = scale or SCALES["small"]
    sweep = run_sweep(scale)
    rows: List[Fig5Row] = []
    for circuit in sweep.circuits():
        for ranks in sweep.ranks(circuit):
            for strategy in STRATEGY_ORDER:
                rows.append(
                    Fig5Row(
                        circuit=circuit,
                        ranks=ranks,
                        strategy=strategy,
                        factor=sweep.improvement_factor(circuit, ranks, strategy),
                    )
                )
    return Fig5Result(rows=rows, sweep=sweep)
