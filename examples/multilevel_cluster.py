#!/usr/bin/env python
"""Domain example: multi-level partitioning on a simulated cluster.

Walks the paper's Sec. IV/V-D pipeline on a ripple-carry adder: level-1
partitioning sized for the per-rank shard, level-2 partitioning sized for
the LLC, and a side-by-side of single-level vs multi-level simulated
execution (the Fig. 10 experiment for one circuit), plus a hybrid GPU
estimate (Sec. VI) for the same workload.

Run:  python examples/multilevel_cluster.py
"""

import math

from repro.circuits.generators import adder
from repro.dist import HiSVSimEngine, IQSEngine
from repro.hybrid import estimate_hybrid, estimate_hyquas_baseline
from repro.partition import DagPPartitioner, multilevel_partition
from repro.runtime.machine import FRONTERA_LIKE


def main() -> None:
    n, ranks = 30, 64
    qc = adder(n)
    qc.name = f"adder_{n}"
    p_bits = ranks.bit_length() - 1
    local = n - p_bits
    llc_limit = int(math.log2(FRONTERA_LIKE.l3_bytes / 16))
    limit2 = min(llc_limit, local - 1)
    print(
        f"{qc.name}: {len(qc)} gates on {ranks} virtual ranks "
        f"({local} local qubits; level-2 limit {limit2} for a "
        f"{FRONTERA_LIKE.l3_bytes >> 20} MB LLC)\n"
    )

    partitioner = DagPPartitioner()
    partition = partitioner.partition(qc, local)
    ml = multilevel_partition(qc, partition, partitioner, limit2)
    print(
        f"level 1: {partition.num_parts} parts; "
        f"level 2: {ml.total_inner_parts()} inner parts "
        f"(trivial: {ml.is_trivial})"
    )

    # Gate for gate (fuse=False), as the paper compares with IQS.
    engine = HiSVSimEngine(ranks, dry_run=True, fuse=False)
    _, single = engine.run(qc, partition)
    _, multi = engine.run(qc, partition, multilevel=ml)
    _, iqs = IQSEngine(ranks, dry_run=True).run(qc)
    print(f"\nsingle-level : {single.total_seconds:8.3f}s  ({single.summary()})")
    print(f"multi-level  : {multi.total_seconds:8.3f}s")
    print(f"IQS baseline : {iqs.total_seconds:8.3f}s")
    print(
        f"\nmulti-level reduction: "
        f"{100 * (1 - multi.total_seconds / single.total_seconds):.1f}% "
        f"(paper Fig. 10: avg 15.8%)"
    )
    print(
        f"factors over IQS: single {iqs.total_seconds / single.total_seconds:.2f}x, "
        f"multi {iqs.total_seconds / multi.total_seconds:.2f}x "
        f"(paper: up to 3.9x / 5.7x)"
    )

    # --- Sec. VI: hand the local computation to a GPU model ---------------
    gpus = 4
    small = adder(24)
    small.name = "adder_24"
    part = DagPPartitioner().partition(small, 24 - 2)
    hybrid = estimate_hybrid(small, part, num_gpus=gpus)
    hyquas = estimate_hyquas_baseline(small, num_gpus=gpus)
    print(
        f"\nhybrid estimate ({small.name}, {gpus} GPUs): "
        f"HiSVSIM+GPU {hybrid.total_seconds:.3f}s "
        f"vs HyQuas {hyquas.total_seconds:.3f}s"
    )


if __name__ == "__main__":
    main()
