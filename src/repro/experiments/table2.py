"""Table II — single-node memory-access breakdown (bv, ising).

The paper profiles single-thread hierarchical runs with VTune and reports
per-level clocktick shares, a memory-bound pipeline-slot share and
execution time for each strategy.  Here the analytic cache sweep model
plays VTune's role: partitions are computed at the paper's full width
(30 qubits — no amplitudes are needed), the hierarchical access stream is
fed through the residency model, and a
:class:`~repro.runtime.machine.MachineModel` converts traffic to time.

Expected shape: dagP's lower part count yields the lowest DRAM share,
memory-bound share and execution time; Nat is worst on both circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.tables import render_table
from ..cachesim.hierarchy import analyze_sweeps
from ..cachesim.trace import sweeps_for_partition
from ..circuits.generators import build
from ..runtime.machine import WORKSTATION_LIKE, MachineModel
from .common import STRATEGY_ORDER, Scale, partition_cached

__all__ = ["PAPER_TABLE2", "Table2Row", "run"]

# (circuit, strategy) -> (L1%, L2%, L3%, DRAM%, mem/pipeline %, exec s)
PAPER_TABLE2 = {
    ("bv", "Nat"): (6.1, 4.0, 4.4, 19.8, 35.7, 209.7),
    ("bv", "DFS"): (2.3, 3.1, 3.8, 16.6, 26.1, 172.8),
    ("bv", "dagP"): (2.9, 6.5, 2.0, 4.3, 20.9, 163.2),
    ("ising", "Nat"): (7.0, 2.7, 4.4, 11.2, 20.2, 613.5),
    ("ising", "DFS"): (1.5, 1.2, 1.9, 5.8, 6.6, 455.6),
    ("ising", "dagP"): (1.3, 1.2, 2.1, 5.5, 7.5, 454.1),
}


@dataclass
class Table2Row:
    circuit: str
    strategy: str
    parts: int
    l1_pct: float
    l2_pct: float
    l3_pct: float
    dram_pct: float
    mem_bound_pct: float
    exec_seconds: float
    paper_dram_pct: float
    paper_exec_seconds: float


@dataclass
class Table2Result:
    rows: List[Table2Row]

    def table(self) -> str:
        return render_table(
            [
                "circuit",
                "strategy",
                "parts",
                "L1 %",
                "L2 %",
                "L3 %",
                "DRAM %",
                "mem-bound %",
                "exec (s)",
                "paper DRAM %",
                "paper exec (s)",
            ],
            [
                (
                    r.circuit,
                    r.strategy,
                    r.parts,
                    round(r.l1_pct, 1),
                    round(r.l2_pct, 1),
                    round(r.l3_pct, 1),
                    round(r.dram_pct, 1),
                    round(r.mem_bound_pct, 1),
                    round(r.exec_seconds, 1),
                    r.paper_dram_pct,
                    r.paper_exec_seconds,
                )
                for r in self.rows
            ],
            title="Table II: memory access breakdown (model vs paper)",
        )

    def by(self, circuit: str, strategy: str) -> Table2Row:
        for r in self.rows:
            if r.circuit == circuit and r.strategy == strategy:
                return r
        raise KeyError((circuit, strategy))


def run(
    num_qubits: int = 30,
    limit: int = 16,
    machine: MachineModel = WORKSTATION_LIKE,
    scale: Optional[Scale] = None,
) -> Table2Result:
    """Regenerate Table II (defaults match the paper's 30-qubit bv/ising)."""
    del scale  # partition-only experiment; always affordable at paper width
    rows: List[Table2Row] = []
    for name in ("bv", "ising"):
        circuit = build(name, num_qubits)
        circuit.name = name
        for strategy in STRATEGY_ORDER:
            partition = partition_cached(circuit, strategy, limit)
            events = sweeps_for_partition(circuit, partition)
            prof = analyze_sweeps(
                events,
                l1_bytes=machine.l1_bytes,
                l2_bytes=machine.l2_bytes,
                l3_bytes=machine.l3_bytes,
            )
            shares = prof.clocktick_shares(machine)
            paper = PAPER_TABLE2[(name, strategy)]
            rows.append(
                Table2Row(
                    circuit=name,
                    strategy=strategy,
                    parts=partition.num_parts,
                    l1_pct=100 * shares["L1"],
                    l2_pct=100 * shares["L2"],
                    l3_pct=100 * shares["L3"],
                    dram_pct=100 * shares["DRAM"],
                    mem_bound_pct=100 * prof.memory_bound_share(machine),
                    exec_seconds=prof.execution_seconds(machine),
                    paper_dram_pct=paper[3],
                    paper_exec_seconds=paper[5],
                )
            )
    return Table2Result(rows=rows)
