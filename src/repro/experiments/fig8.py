"""Fig. 8 — geometric mean of the average communication ratio.

Per algorithm and rank count: geometric mean over circuits of
``avg_comm / (comp + avg_comm)``.  Paper shape: dagP lowest at every rank
count with the flattest growth; IQS highest (30-45%).

``avg_comm`` is ``RunReport.comm_seconds``, the busiest rank's
alpha-beta time — equal to the per-rank average because every rank
moves the same traffic (see :mod:`repro.experiments.fig7`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.tables import geomean, render_table
from .common import SCALES, Scale
from .sweep import ALGORITHMS, SweepResult, run_sweep

__all__ = ["Fig8Result", "run"]


@dataclass
class Fig8Result:
    # (algorithm, ranks) -> geometric-mean communication ratio (0..1)
    ratios: Dict[Tuple[str, int], float]
    sweep: SweepResult

    def series(self, algorithm: str) -> List[Tuple[int, float]]:
        return sorted(
            ((ranks, v) for (a, ranks), v in self.ratios.items() if a == algorithm)
        )

    def table(self) -> str:
        ranks_all = sorted({ranks for (_, ranks) in self.ratios})
        return render_table(
            ["algorithm"] + [str(r) for r in ranks_all],
            [
                [algo]
                + [
                    round(100 * self.ratios.get((algo, r), float("nan")), 1)
                    for r in ranks_all
                ]
                for algo in ALGORITHMS
            ],
            title="Fig 8: geomean communication ratio % by rank count",
        )


def run(scale: Optional[Scale] = None) -> Fig8Result:
    scale = scale or SCALES["small"]
    sweep = run_sweep(scale)
    buckets: Dict[Tuple[str, int], List[float]] = {}
    for (circuit, ranks, algo), rep in sweep.reports.items():
        comm = rep.comm_seconds
        total = rep.comp_seconds + comm
        if total <= 0:
            continue
        ratio = comm / total
        if ratio <= 0:
            ratio = 1e-6  # keep geometric mean defined for comm-free runs
        buckets.setdefault((algo, ranks), []).append(ratio)
    ratios = {key: geomean(vals) for key, vals in buckets.items()}
    return Fig8Result(ratios=ratios, sweep=sweep)
