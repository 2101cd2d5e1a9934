"""Fig. 9 — Dolan-Moré performance profiles.

9a: total runtime across all (circuit, ranks) instances for Nat/DFS/dagP
and IQS.  9b: average communication time for the three HiSVSIM variants.
Paper reference points: dagP best on ~65% of instances for total runtime
and within 1.3x of best everywhere; best comm time on ~75% of instances.

The communication time profiled is ``RunReport.comm_seconds``, the
busiest rank's alpha-beta time — equal to the per-rank average because
every rank moves the same traffic (see :mod:`repro.experiments.fig7`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.perfprofile import ProfileCurve, performance_profile
from ..analysis.tables import render_table
from .common import SCALES, STRATEGY_ORDER, Scale
from .sweep import ALGORITHMS, SweepResult, run_sweep

__all__ = ["Fig9Result", "run"]


@dataclass
class Fig9Result:
    runtime_profiles: Dict[str, ProfileCurve]
    comm_profiles: Dict[str, ProfileCurve]
    sweep: SweepResult

    def best_share(self, algorithm: str, which: str = "runtime") -> float:
        """rho at theta=1 — the share of instances where algo is best."""
        profs = self.runtime_profiles if which == "runtime" else self.comm_profiles
        return profs[algorithm].rho_at(1.0)

    def table(self) -> str:
        thetas = (1.0, 1.1, 1.2, 1.3, 1.5, 2.0)
        rows = []
        for name, prof in sorted(self.runtime_profiles.items()):
            rows.append(
                [f"runtime/{name}"] + [round(prof.rho_at(t), 2) for t in thetas]
            )
        for name, prof in sorted(self.comm_profiles.items()):
            rows.append(
                [f"comm/{name}"] + [round(prof.rho_at(t), 2) for t in thetas]
            )
        return render_table(
            ["profile"] + [f"θ={t}" for t in thetas],
            rows,
            title="Fig 9: performance profiles (rho at selected θ)",
        )


def run(scale: Optional[Scale] = None) -> Fig9Result:
    scale = scale or SCALES["small"]
    sweep = run_sweep(scale)
    runtime_costs: Dict[str, Dict[str, float]] = {a: {} for a in ALGORITHMS}
    comm_costs: Dict[str, Dict[str, float]] = {s: {} for s in STRATEGY_ORDER}
    for (circuit, ranks, algo), rep in sweep.reports.items():
        inst = f"{circuit}@{ranks}"
        runtime_costs[algo][inst] = max(rep.total_seconds, 1e-12)
        if algo in comm_costs:
            comm_costs[algo][inst] = max(rep.comm_seconds, 1e-12)
    return Fig9Result(
        runtime_profiles=performance_profile(runtime_costs),
        comm_profiles=performance_profile(comm_costs),
        sweep=sweep,
    )
