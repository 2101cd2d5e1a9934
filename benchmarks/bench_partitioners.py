"""Partitioner runtime benchmarks.

Paper claim (Sec. IV-B): "Compared to the runtime of the quantum
circuits, all three have negligible computation times" — partitioning a
paper-width circuit must stay far below its simulated execution time.
"""

import pytest

from repro.circuits.generators import build
from repro.partition import get_partitioner

CASES = [
    ("bv", 30, 22),
    ("qaoa", 30, 22),
    ("qft", 30, 22),
    ("qpe", 31, 23),
]


@pytest.mark.parametrize("strategy", ["Nat", "DFS", "dagP"])
@pytest.mark.parametrize("name,n,limit", CASES)
def test_partitioner_speed(benchmark, strategy, name, n, limit):
    circuit = build(name, n)
    partitioner = get_partitioner(strategy)
    result = benchmark(lambda: partitioner.partition(circuit, limit))
    assert result.num_parts >= 1
    # "Negligible": well under a second even for the widest inputs.
    assert benchmark.stats["mean"] < 2.0


# -- repro.bench registration ------------------------------------------------

from repro import bench


@bench.register(
    "partitioners",
    tags=("smoke", "paper"),
    params={"qubits": 16, "limit": 12, "circuits": ["bv", "qaoa", "qft"]},
    smoke={"qubits": 12, "limit": 8},
)
def run_bench(params):
    """Part counts per strategy — the partitioner-quality head-to-head."""
    metrics = {}
    for name in params["circuits"]:
        circuit = build(name, params["qubits"])
        for strategy in ("Nat", "DFS", "dagP"):
            result = get_partitioner(strategy).partition(
                circuit, params["limit"]
            )
            metrics[f"{name}_{strategy}_parts"] = result.num_parts
    return bench.payload(metrics)
