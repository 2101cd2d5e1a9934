"""Serial vs. threaded execution backends: bitwise agreement.

Runs hierarchical execution (fusion on) of QFT, QAOA and Grover under
the serial and threaded backends and verifies the two final states are
**bit-identical** (both backends' row blocks are deterministic and
disjoint, so this is an equality, not a tolerance).  Both take their
blocks from one rule and differ only where a state needs fewer than
``threads`` cache-sized blocks: the smoke run's 14-qubit state is one
block serially and two threaded.

How much faster the threaded backend runs is measured by the perf
harness (``backend.threaded2.speedup`` in ``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.partition import get_partitioner
from repro.serve import default_limit
from repro.sv import (
    HierarchicalExecutor,
    SerialBackend,
    ThreadedBackend,
    zero_state,
)


def _run(qc, partition, backend):
    state = zero_state(qc.num_qubits)
    HierarchicalExecutor(backend=backend).run(qc, partition, state)
    return state


@bench.register(
    "parallel",
    tags=("smoke", "accept"),
    params={"qubits": 22, "threads": 4, "circuits": ["qft", "qaoa", "grover"]},
    smoke={"qubits": 14, "threads": 2, "circuits": ["qft"]},
)
def run_bench(params):
    """Serial vs threaded backends: bitwise agreement, part counts."""
    qubits, threads = params["qubits"], params["threads"]
    metrics, claims = {"threads": threads}, {}
    for name in params["circuits"]:
        qc = generators.build(name, qubits)
        p = get_partitioner("dagP").partition(qc, default_limit(qubits))
        serial_state = _run(qc, p, SerialBackend())
        with ThreadedBackend(threads) as backend:
            threaded_state = _run(qc, p, backend)
        identical = bool(np.array_equal(serial_state, threaded_state))
        metrics[f"{name}_parts"] = p.num_parts
        metrics[f"{name}_bit_identical"] = identical
        claims[f"{name}: threaded state bit-identical to serial"] = identical
    return bench.payload(metrics, ok=claims)
