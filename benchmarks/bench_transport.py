"""Socket transport vs the dry-run traffic model and the in-process path.

The distributed layer's acceptance bar: a 2-rank SPMD run over real
localhost TCP sockets must (a) produce a final state **bit-identical**
to the in-process communicator (all ranks in one ``SimComm`` — the
behaviour every pinned model number rests on), and (b) move, per exchange and per rank,
exactly the amplitude volume the closed-form dry-run model
(:func:`repro.dist.analytic.exchange_rank_stats`) predicts.  Both are
gated metrics — a single byte of disagreement fails the benchmark.

Also runnable without pytest (shared ``repro.bench`` flags)::

    python benchmarks/bench_transport.py --set qubits=8
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

NUM_RANKS = 2
QUBITS = 8
CIRCUIT = "qft"


def run_comparison(num_ranks=NUM_RANKS, qubits=QUBITS, circuit=CIRCUIT):
    qc = generators.build(circuit, qubits)
    partition = get_partitioner("dagP").partition(qc, max(3, qubits - 3))
    local_bits = qubits - (num_ranks.bit_length() - 1)

    state, rec_report = HiSVSimEngine(num_ranks=num_ranks).run(qc, partition)
    reference = state.to_full()

    def worker(rank, transport):
        state, report = HiSVSimEngine(num_ranks=num_ranks).run(
            qc, partition, comm=transport
        )
        return state.to_full(), report, list(transport.records)

    results = run_spmd(num_ranks, worker)

    bitwise = all(
        np.array_equal(full.view(np.uint8), reference.view(np.uint8))
        for full, _, _ in results
    )
    expected = engine_exchange_layouts(partition, qubits, num_ranks)
    records_match = True
    rank_sent_total = 0
    for rank, (_, _, records) in enumerate(results):
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
    volume_matches = rank_sent_total == rec_report.comm.total_bytes

    return {
        "num_ranks": num_ranks,
        "qubits": qubits,
        "circuit": qc.name,
        "exchanges": len(expected),
        "model_bytes": rec_report.comm.total_bytes,
        "model_msgs": rec_report.comm.total_msgs,
        "bitwise_identical": bitwise,
        "records_match_model": records_match,
        "volume_matches_recording": volume_matches,
    }


def render(res) -> str:
    return "\n".join(
        [
            f"Socket transport — {res['circuit']} over {res['num_ranks']} "
            f"ranks ({res['exchanges']} exchanges, "
            f"{res['model_bytes']} model bytes)",
            f"bitwise identical: {res['bitwise_identical']}, "
            f"records == model: {res['records_match_model']}",
        ]
    )


# -- pytest entry point ------------------------------------------------------


def test_socket_transport_matches_model(save_result):
    """Acceptance: bit-identical states and byte-exact model agreement."""
    res = run_comparison()
    assert res["bitwise_identical"], "socket state diverged from recording"
    assert res["records_match_model"], "observed traffic disagrees with model"
    assert res["volume_matches_recording"]
    save_result("bench_transport_socket", render(res))


# -- repro.bench registration and standalone entry point ---------------------


@bench.register(
    "transport",
    tags=("smoke", "accept"),
    params={"ranks": NUM_RANKS, "qubits": QUBITS, "circuit": CIRCUIT},
    smoke={"ranks": 2, "qubits": 7, "circuit": "qft"},
)
def run_bench(params):
    """2-rank socket run vs the in-process comm and the dry-run model.

    Every metric is deterministic (traffic model + agreement flags).
    ``ok`` is the conjunction of the bit-identity and model-agreement
    gates.
    """
    res = run_comparison(
        int(params["ranks"]), int(params["qubits"]), params["circuit"]
    )
    ok = (
        res["bitwise_identical"]
        and res["records_match_model"]
        and res["volume_matches_recording"]
    )
    return bench.payload(
        metrics={
            "ranks": res["num_ranks"],
            "qubits": res["qubits"],
            "exchanges": res["exchanges"],
            "model_bytes": res["model_bytes"],
            "model_msgs": res["model_msgs"],
            "bitwise_identical": res["bitwise_identical"],
            "records_match_model": res["records_match_model"],
        },
        info={"circuit": res["circuit"]},
        ok=ok,
    )


def main(argv=None) -> int:
    return bench.script_main("transport", argv)


if __name__ == "__main__":
    raise SystemExit(main())
