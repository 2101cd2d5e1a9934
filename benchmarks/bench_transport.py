"""Socket transport vs the dry-run traffic model and the in-process path.

The distributed layer's acceptance bar: a 2-rank SPMD run over real
localhost TCP sockets must (a) produce a final state **bit-identical**
to the in-process communicator (all ranks in one ``SimComm`` — the
behaviour every pinned model number rests on), and (b) move, per
exchange and per rank, exactly the amplitude volume the closed-form
dry-run model
(:func:`repro.dist.analytic.exchange_rank_stats`) predicts.  Both are
gated metrics — a single byte of disagreement fails the benchmark.
"""

from __future__ import annotations

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.dist import (
    HiSVSimEngine,
    engine_exchange_layouts,
    exchange_rank_stats,
)
from repro.dist.transport import run_spmd
from repro.partition import get_partitioner
from repro.serve import default_limit


@bench.register(
    "transport",
    tags=("smoke", "accept"),
    params={"ranks": 2, "qubits": 8, "circuit": "qft"},
    smoke={"ranks": 2, "qubits": 7, "circuit": "qft"},
)
def run_bench(params):
    """2-rank socket run vs the in-process comm and the dry-run model.

    Every metric is deterministic (traffic model + agreement flags).
    """
    num_ranks, qubits = int(params["ranks"]), int(params["qubits"])
    qc = generators.build(params["circuit"], qubits)
    partition = get_partitioner("dagP").partition(qc, default_limit(qubits))
    local_bits = qubits - (num_ranks.bit_length() - 1)

    state, rec_report = HiSVSimEngine(num_ranks=num_ranks).run(qc, partition)
    reference = state.to_full()

    def worker(rank, transport):
        state, _ = HiSVSimEngine(num_ranks=num_ranks).run(
            qc, partition, comm=transport
        )
        return state.to_full(), list(transport.records)

    results = run_spmd(num_ranks, worker)

    bitwise = all(
        np.array_equal(full.view(np.uint8), reference.view(np.uint8))
        for full, _ in results
    )
    expected = engine_exchange_layouts(partition, qubits, num_ranks)
    records_match = True
    rank_sent_total = 0
    for rank, (_, records) in enumerate(results):
        if len(records) != len(expected):
            records_match = False
            continue
        for record, (old, new) in zip(records, expected):
            model = exchange_rank_stats(old, new, local_bits, rank)
            observed = (record.sent_bytes, record.sent_msgs,
                        record.recv_bytes, record.recv_msgs)
            if observed != model:
                records_match = False
            rank_sent_total += record.sent_bytes
    return bench.payload(
        metrics={
            "ranks": num_ranks,
            "qubits": qubits,
            "exchanges": len(expected),
            "model_bytes": rec_report.comm.total_bytes,
            "model_msgs": rec_report.comm.total_msgs,
            "bitwise_identical": bitwise,
            "records_match_model": records_match,
        },
        info={"circuit": qc.name},
        ok={
            "socket state bit-identical to the in-process run": bitwise,
            "per-rank records equal the dry-run model byte for byte":
                records_match,
            "bytes sent sum to the in-process run's volume": (
                rank_sent_total == rec_report.comm.total_bytes
            ),
        },
    )
