#!/usr/bin/env python
"""Domain example: inspect how each strategy partitions a QFT circuit.

Prints the DAG statistics, each strategy's part structure (gates, working
sets, qubit overlap between consecutive parts — the quantity that drives
exchange volume), validates every partition, and estimates the resulting
cache behaviour with the analytic sweep model (the Table II machinery).

Run:  python examples/partition_explorer.py [num_qubits] [limit]
"""

import sys

from repro.analysis.tables import render_table
from repro.cachesim import analyze_sweeps, sweeps_for_flat, sweeps_for_partition
from repro.circuits.generators import qft
from repro.dag import GateGraph
from repro.partition import get_partitioner, validate_partition
from repro.runtime.machine import WORKSTATION_LIKE


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    limit = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    qc = qft(n)
    print(f"circuit: qft_{n} ({len(qc)} gates), working-set limit {limit}")
    graph = GateGraph.from_circuit(qc)
    print(
        f"DAG: {graph.num_nodes} gates, {sum(map(len, graph.succ))} "
        f"dependency edges, longest path {qc.depth()} gates\n"
    )

    flat_prof = analyze_sweeps(sweeps_for_flat(qc))
    flat_time = flat_prof.execution_seconds(WORKSTATION_LIKE)
    print(f"flat execution model: {flat_time:.3f}s (every gate sweeps DRAM)\n")

    for strategy in ("Nat", "DFS", "dagP"):
        partition = get_partitioner(strategy).partition(qc, limit)
        validate_partition(qc, partition, raise_on_error=True)
        rows = []
        prev_qubits = None
        for i, part in enumerate(partition.parts):
            overlap = (
                len(set(part.qubits) & prev_qubits) if prev_qubits is not None else "-"
            )
            rows.append(
                (
                    f"P{i}",
                    part.num_gates,
                    part.working_set_size,
                    overlap,
                )
            )
            prev_qubits = set(part.qubits)
        prof = analyze_sweeps(sweeps_for_partition(qc, partition))
        t = prof.execution_seconds(WORKSTATION_LIKE)
        print(
            render_table(
                ["part", "gates", "working set", "overlap w/ prev"],
                rows,
                title=(
                    f"{strategy}: {partition.num_parts} parts, "
                    f"modelled time {t:.3f}s "
                    f"({flat_time / t:.2f}x vs flat)"
                ),
            )
        )


if __name__ == "__main__":
    main()
