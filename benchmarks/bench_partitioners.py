"""Part counts per strategy — the partitioner-quality head-to-head.

Paper claim (Sec. IV): the DAG-aware strategies need fewer parts than the
written order.  Claimed here: DFS and dagP never need more parts than
Nat (dagP vs DFS is a heuristic race the gated counts record, not a
law).  How long partitioning takes is the perf harness's
``partition.{Nat,DFS,dagP}.s``.
"""

from repro import bench
from repro.circuits.generators import build
from repro.partition import get_partitioner


@bench.register(
    "partitioners",
    tags=("smoke", "paper"),
    params={"qubits": 16, "limit": 12, "circuits": ["bv", "qaoa", "qft"]},
    smoke={"qubits": 12, "limit": 8},
)
def run_bench(params):
    """Part counts per strategy — the partitioner-quality head-to-head."""
    metrics, claims = {}, {}
    for name in params["circuits"]:
        circuit = build(name, params["qubits"])
        parts = {
            strategy: get_partitioner(strategy)
            .partition(circuit, params["limit"])
            .num_parts
            for strategy in ("Nat", "DFS", "dagP")
        }
        for strategy, count in parts.items():
            metrics[f"{name}_{strategy}_parts"] = count
        claims[f"{name}: DFS and dagP need no more parts than Nat"] = (
            min(parts.values()) >= 1
            and max(parts["DFS"], parts["dagP"]) <= parts["Nat"]
        )
    return bench.payload(metrics, ok=claims)
