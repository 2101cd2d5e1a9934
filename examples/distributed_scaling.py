#!/usr/bin/env python
"""Domain example: strong-scaling study of a Grover search workload.

Reproduces the paper's Sec. V-C methodology on one circuit: sweep the
virtual-rank count, compare the three partitioning strategies against the
IQS baseline, and report runtime, communication share and improvement
factors — the raw material of Figs. 5-8.

The engines run in dry-run mode (closed-form exchange accounting), so the
sweep works at paper widths on a laptop.

Run:  python examples/distributed_scaling.py [num_qubits]
"""

import sys

from repro.analysis.tables import render_table
from repro.circuits.generators import grover
from repro.dist import HiSVSimEngine, IQSEngine
from repro.partition import get_partitioner


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    qc = grover(n)
    qc.name = f"grover_{n}"
    print(f"workload: {qc.name}, {len(qc)} gates\n")

    rows = []
    for ranks in (4, 16, 64):
        local = n - (ranks.bit_length() - 1)
        _, iqs = IQSEngine(ranks, dry_run=True).run(qc)
        for strategy in ("Nat", "DFS", "dagP"):
            partition = get_partitioner(strategy).partition(qc, local)
            # Gate for gate (fuse=False), as the paper compares with IQS.
            _, rep = HiSVSimEngine(ranks, dry_run=True, fuse=False).run(
                qc, partition
            )
            rows.append(
                (
                    ranks,
                    strategy,
                    partition.num_parts,
                    round(rep.total_seconds, 4),
                    f"{rep.comm_ratio:.1%}",
                    round(iqs.total_seconds / rep.total_seconds, 2),
                )
            )
        rows.append(
            (
                ranks,
                "IQS",
                "-",
                round(iqs.total_seconds, 4),
                f"{iqs.comm_ratio:.1%}",
                1.0,
            )
        )
    print(
        render_table(
            ["ranks", "algorithm", "parts", "time (s)", "comm share", "vs IQS"],
            rows,
            title=f"Strong scaling, {qc.name} (simulated cluster)",
        )
    )
    print(
        "Expected shape (paper Figs. 5-8): dagP needs the fewest parts,\n"
        "carries the lowest communication share, and its advantage over\n"
        "IQS grows with the rank count."
    )


if __name__ == "__main__":
    main()
