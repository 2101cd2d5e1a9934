"""Socket transport vs the dry-run traffic model and the in-process path.

The distributed layer's acceptance bar: a 2-rank SPMD run over real
localhost TCP sockets must (a) produce a final state **bit-identical**
to the in-process communicator (all ranks in one ``SimComm`` — the
behaviour every pinned model number rests on), and (b) move, per
exchange and per rank, exactly the amplitude volume the closed-form
dry-run model predicts
(:func:`repro.dist.verify_exchange_records`).  Both are
gated metrics — a single byte of disagreement fails the benchmark.
"""

from __future__ import annotations

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.dist import (
    HiSVSimEngine,
    engine_exchange_layouts,
    verify_exchange_records,
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
    records_match = not any(
        verify_exchange_records(records, partition, qubits, num_ranks, rank)
        for rank, (_, records) in enumerate(results)
    )
    rank_sent_total = sum(
        record.sent_bytes for _, records in results for record in records
    )
    return bench.payload(
        metrics={
            "ranks": num_ranks,
            "qubits": qubits,
            "exchanges": len(
                engine_exchange_layouts(partition, qubits, num_ranks)
            ),
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
