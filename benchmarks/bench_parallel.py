"""Serial vs. threaded execution backends: bitwise agreement.

Runs hierarchical execution (fusion on) of QFT, QAOA and Grover under
the serial and threaded backends and verifies the two final states are
**bit-identical** (the threaded backend's row blocks are deterministic
and disjoint, so this is an equality, not a tolerance).

How much faster the threaded backend runs is measured by the perf
harness (``backend.threaded2.speedup`` in ``BENCHMARK.json``), not here.

Also runnable without pytest for CI smoke (shared ``repro.bench`` flags)::

    python benchmarks/bench_parallel.py --set qubits=14 --set threads=2
"""

from __future__ import annotations

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.partition import get_partitioner
from repro.sv import (
    HierarchicalExecutor,
    SerialBackend,
    ThreadedBackend,
    zero_state,
)

DEFAULT_QUBITS = 22
DEFAULT_THREADS = 4
CIRCUITS = ("qft", "qaoa", "grover")


def _run(qc, partition, backend):
    state = zero_state(qc.num_qubits)
    HierarchicalExecutor(backend=backend).run(qc, partition, state)
    return state


def compare_circuit(name: str, qubits: int, threads: int):
    """Run serial and threaded on one circuit; returns a result dict."""
    qc = generators.build(name, qubits)
    p = get_partitioner("dagP").partition(qc, max(3, qubits - 3))
    serial_state = _run(qc, p, SerialBackend())
    backend = ThreadedBackend(threads, min_parallel_elements=0)
    try:
        threaded_state = _run(qc, p, backend)
    finally:
        backend.close()
    return {
        "circuit": qc.name,
        "qubits": qubits,
        "threads": threads,
        "parts": p.num_parts,
        "bit_identical": bool(np.array_equal(serial_state, threaded_state)),
    }


def run_comparison(circuits=CIRCUITS, qubits=DEFAULT_QUBITS,
                   threads=DEFAULT_THREADS):
    return [compare_circuit(c, qubits, threads) for c in circuits]


def render(results) -> str:
    threads = results[0]["threads"] if results else DEFAULT_THREADS
    lines = [
        f"Serial vs threaded backend (threads={threads}, fusion on)",
        f"{'circuit':>12} {'parts':>6} {'bitwise':>8}",
    ]
    for r in results:
        lines.append(
            f"{r['circuit']:>12} {r['parts']:>6} "
            f"{'equal' if r['bit_identical'] else 'DIFFER':>8}"
        )
    return "\n".join(lines)


# -- pytest-benchmark entry points ------------------------------------------


def test_qft22_threaded_bit_identical(save_result):
    """Acceptance: threaded == serial, bit for bit, on the full-size QFT."""
    res = compare_circuit("qft", DEFAULT_QUBITS, DEFAULT_THREADS)
    save_result("bench_parallel_qft", render([res]))
    assert res["bit_identical"], "threaded state deviates from serial"


def test_parallel_comparison_table(save_result):
    # The full table sweeps all three circuits at a step smaller width to
    # keep the harness run bounded; the acceptance test above carries the
    # full-size check.
    results = run_comparison(qubits=DEFAULT_QUBITS - 2)
    for r in results:
        assert r["bit_identical"], f"{r['circuit']}: states differ"
    save_result("bench_parallel_comparison", render(results))


# -- repro.bench registration and standalone entry point ---------------------


@bench.register(
    "parallel",
    tags=("smoke", "accept"),
    params={
        "qubits": DEFAULT_QUBITS,
        "threads": DEFAULT_THREADS,
        "circuits": list(CIRCUITS),
    },
    smoke={"qubits": 14, "threads": 2, "circuits": ["qft"]},
)
def run_bench(params):
    """Serial vs threaded backends: bitwise agreement, part counts."""
    results = run_comparison(
        params["circuits"], params["qubits"], params["threads"]
    )
    metrics = {"threads": params["threads"]}
    for requested, r in zip(params["circuits"], results):
        metrics[f"{requested}_parts"] = r["parts"]
        metrics[f"{requested}_bit_identical"] = r["bit_identical"]
    return bench.payload(
        metrics, ok=all(r["bit_identical"] for r in results)
    )


def main(argv=None) -> int:
    return bench.script_main("parallel", argv)


if __name__ == "__main__":
    raise SystemExit(main())
