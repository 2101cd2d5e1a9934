"""Fig. 7 — average per-rank communication time.

The paper reports each engine's communication time averaged across MPI
ranks.  Expected shape: dagP lowest everywhere; IQS highest, increasingly
so for the wider circuits.

What is reported is ``RunReport.comm_seconds``: the alpha-beta time of
the *busiest* rank's bytes and messages.  Here that is also the average:
both engines only ever swap a local bit position with a rank position,
so every rank moves the same traffic — ``max_bytes_per_rank * ranks ==
total_bytes``, and the same for messages, in every report of a sweep
(``tests/test_experiments.py`` asserts it over the tiny one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.tables import render_table
from .common import SCALES, Scale
from .sweep import ALGORITHMS, SweepResult, run_sweep

__all__ = ["Fig7Row", "Fig7Result", "run"]


@dataclass
class Fig7Row:
    circuit: str
    ranks: int
    algorithm: str
    comm_seconds_avg: float
    comm_bytes: int


@dataclass
class Fig7Result:
    rows: List[Fig7Row]
    sweep: SweepResult

    def value(self, circuit: str, ranks: int, algorithm: str) -> float:
        for r in self.rows:
            if (r.circuit, r.ranks, r.algorithm) == (circuit, ranks, algorithm):
                return r.comm_seconds_avg
        raise KeyError((circuit, ranks, algorithm))

    def table(self) -> str:
        return render_table(
            ["circuit", "ranks", "algorithm", "avg comm (s)", "bytes"],
            [
                (
                    r.circuit,
                    r.ranks,
                    r.algorithm,
                    round(r.comm_seconds_avg, 5),
                    r.comm_bytes,
                )
                for r in self.rows
            ],
            title="Fig 7: average communication time",
        )


def run(scale: Optional[Scale] = None) -> Fig7Result:
    scale = scale or SCALES["small"]
    sweep = run_sweep(scale)
    rows: List[Fig7Row] = []
    for circuit in sweep.circuits():
        for ranks in sweep.ranks(circuit):
            for algo in ALGORITHMS:
                rep = sweep.get(circuit, ranks, algo)
                rows.append(
                    Fig7Row(
                        circuit=circuit,
                        ranks=ranks,
                        algorithm=algo,
                        comm_seconds_avg=rep.comm_seconds,
                        comm_bytes=rep.comm.total_bytes,
                    )
                )
    return Fig7Result(rows=rows, sweep=sweep)
