"""Fig. 6 — strong-scaling runtime per circuit.

Maximum end-to-end simulated time of the three strategies and IQS across
rank counts.  Paper observations reproduced here: (I) close-to-linear
speedup for every strategy; (II) compute and communication shares scale
together; (III) HiSVSIM's computation share beats IQS's everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.tables import render_table
from .common import SCALES, Scale
from .sweep import ALGORITHMS, SweepResult, run_sweep

__all__ = ["Fig6Row", "Fig6Result", "run"]


@dataclass
class Fig6Row:
    circuit: str
    ranks: int
    algorithm: str
    total_seconds: float
    comp_seconds: float
    comm_seconds: float


@dataclass
class Fig6Result:
    rows: List[Fig6Row]
    sweep: SweepResult

    def series(self, circuit: str, algorithm: str) -> List[Fig6Row]:
        return sorted(
            (
                r
                for r in self.rows
                if r.circuit == circuit and r.algorithm == algorithm
            ),
            key=lambda r: r.ranks,
        )

    def speedup(self, circuit: str, algorithm: str) -> float:
        """Total-time speedup from the smallest to the largest rank count."""
        s = self.series(circuit, algorithm)
        if len(s) < 2 or s[-1].total_seconds == 0:
            return 1.0
        return s[0].total_seconds / s[-1].total_seconds

    def table(self) -> str:
        return render_table(
            ["circuit", "ranks", "algorithm", "total (s)", "comp (s)", "comm (s)"],
            [
                (
                    r.circuit,
                    r.ranks,
                    r.algorithm,
                    round(r.total_seconds, 4),
                    round(r.comp_seconds, 4),
                    round(r.comm_seconds, 4),
                )
                for r in self.rows
            ],
            title="Fig 6: strong-scaling runtimes",
        )


def run(scale: Optional[Scale] = None) -> Fig6Result:
    scale = scale or SCALES["small"]
    sweep = run_sweep(scale)
    rows: List[Fig6Row] = []
    for circuit in sweep.circuits():
        for ranks in sweep.ranks(circuit):
            for algo in ALGORITHMS:
                rep = sweep.get(circuit, ranks, algo)
                rows.append(
                    Fig6Row(
                        circuit=circuit,
                        ranks=ranks,
                        algorithm=algo,
                        total_seconds=rep.total_seconds,
                        comp_seconds=rep.comp_seconds,
                        comm_seconds=rep.comm_seconds,
                    )
                )
    return Fig6Result(rows=rows, sweep=sweep)
