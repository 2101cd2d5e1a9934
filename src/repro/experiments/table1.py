"""Table I — benchmark suite description.

Regenerates the circuit inventory (qubits, gate count, state-vector
memory) from our generators, next to the paper's reported values for the
same family at its original width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.tables import render_table
from .common import SCALES, Scale, suite_circuits

__all__ = ["PAPER_TABLE1", "Table1Row", "run"]

# key -> (paper qubits, paper gates, paper memory)
PAPER_TABLE1 = {
    "cat_state": (30, 60, "16 GB"),
    "bv": (30, 102, "16 GB"),
    "qaoa": (30, 1380, "16 GB"),
    "cc": (30, 149, "16 GB"),
    "ising": (30, 354, "16 GB"),
    "qft": (30, 2235, "16 GB"),
    "qnn": (31, 164, "32 GB"),
    "grover": (31, 207, "32 GB"),
    "qpe": (31, 5731, "32 GB"),
    "bv35": (35, 119, "512 GB"),
    "ising35": (35, 414, "512 GB"),
    "cc36": (36, 106, "1 TB"),
    "adder37": (37, 154, "2 TB"),
}


@dataclass
class Table1Row:
    key: str
    qubits: int
    gates: int
    depth: int
    memory: str
    paper_qubits: int
    paper_gates: int
    paper_memory: str


@dataclass
class Table1Result:
    rows: List[Table1Row]

    def table(self) -> str:
        return render_table(
            [
                "circuit",
                "qubits",
                "gates",
                "depth",
                "memory",
                "paper qubits",
                "paper gates",
                "paper mem",
            ],
            [
                (
                    r.key,
                    r.qubits,
                    r.gates,
                    r.depth,
                    r.memory,
                    r.paper_qubits,
                    r.paper_gates,
                    r.paper_memory,
                )
                for r in self.rows
            ],
            title="Table I: benchmark description (ours vs paper)",
        )


def run(scale: Optional[Scale] = None) -> Table1Result:
    scale = scale or SCALES["small"]
    rows: List[Table1Row] = []
    for key, qc in suite_circuits(scale.base_qubits).items():
        st = qc.stats()
        pq, pg, pm = PAPER_TABLE1[key]
        rows.append(
            Table1Row(
                key=key,
                qubits=st.num_qubits,
                gates=st.num_gates,
                depth=st.depth,
                memory=st.memory_human(),
                paper_qubits=pq,
                paper_gates=pg,
                paper_memory=pm,
            )
        )
    return Table1Result(rows=rows)
