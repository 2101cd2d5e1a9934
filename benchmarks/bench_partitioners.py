"""Part counts per strategy — the partitioner-quality head-to-head.

Paper claim (Sec. IV): the DAG-aware strategies need fewer parts than the
written order.  Claimed here: DFS and dagP never need more parts than
Nat (dagP vs DFS is a heuristic race the gated counts record, not a
law).  Beside each count the entry gates a digest of the partition
itself, so a gate that moves to another part fails the model-metric gate
even when the part count survives.  How long partitioning takes is the
perf harness's ``partition.{Nat,DFS,dagP}.s``.
"""

import hashlib

from repro import bench
from repro.circuits.generators import build
from repro.partition import get_partitioner


def partition_digest(partition) -> str:
    """First 12 hex of the sha256 of ``(assignment, [part.qubits ...])``."""
    content = (partition.assignment(), [p.qubits for p in partition.parts])
    return hashlib.sha256(repr(content).encode()).hexdigest()[:12]


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
        parts = {}
        for strategy in ("Nat", "DFS", "dagP"):
            partition = get_partitioner(strategy).partition(
                circuit, params["limit"]
            )
            parts[strategy] = partition.num_parts
            metrics[f"{name}_{strategy}_parts"] = partition.num_parts
            metrics[f"{name}_{strategy}_digest"] = partition_digest(partition)
        claims[f"{name}: DFS and dagP need no more parts than Nat"] = (
            min(parts.values()) >= 1
            and max(parts["DFS"], parts["dagP"]) <= parts["Nat"]
        )
    return bench.payload(metrics, ok=claims)
