#!/usr/bin/env python
"""Quickstart: build a circuit, partition it, simulate it three ways.

Demonstrates the three execution tiers of the library on a GHZ + phase
circuit:

1. flat reference simulation,
2. hierarchical (Gather-Execute-Scatter) simulation of a dagP partition,
3. simulated multi-node execution with communication accounting.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import QuantumCircuit
from repro.dist import HiSVSimEngine, IQSEngine
from repro.partition import get_partitioner, validate_partition
from repro.sv import HierarchicalExecutor, StateVectorSimulator, zero_state


def build_circuit(n: int = 12) -> QuantumCircuit:
    """GHZ preparation followed by phase rotations and an entangling mesh."""
    qc = QuantumCircuit(n, name="quickstart")
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    for q in range(n):
        qc.rz(0.1 * (q + 1), q)
    for i in range(0, n - 1, 2):
        qc.cx(i, i + 1)
        qc.rx(0.3, i + 1)
    return qc


def main() -> None:
    qc = build_circuit()
    n = qc.num_qubits
    print(f"circuit: {qc.name}, {n} qubits, {len(qc)} gates, depth {qc.depth()}")

    # --- 1. flat reference ------------------------------------------------
    ref = StateVectorSimulator(n)
    ref.run(qc)
    print(f"flat simulation done; <Z_0> = {ref.expectation_z(0):+.4f}")

    # --- 2. hierarchical execution of an acyclic partition ---------------
    limit = 8  # inner state vectors hold 2^8 amplitudes
    partition = get_partitioner("dagP").partition(qc, limit)
    report = validate_partition(qc, partition)
    assert report.ok, report.problems
    print(
        f"dagP partition: {partition.num_parts} parts, "
        f"working sets {[p.working_set_size for p in partition.parts]}"
    )
    state = zero_state(n)
    HierarchicalExecutor().run(qc, partition, state)
    fidelity = abs(np.vdot(state, ref.state)) ** 2
    print(f"hierarchical execution fidelity vs flat: {fidelity:.12f}")

    # --- 3. simulated multi-node run --------------------------------------
    ranks = 8
    # Gate for gate (fuse=False), as the paper compares with IQS.
    engine = HiSVSimEngine(ranks, fuse=False)
    local = n - (ranks.bit_length() - 1)
    dist_partition = get_partitioner("dagP").partition(qc, local)
    dist_state, run_report = engine.run(qc, dist_partition)
    assert np.allclose(dist_state.to_full(), ref.state, atol=1e-9)
    print(f"\nHiSVSIM on {ranks} virtual ranks: {run_report.summary()}")

    _, iqs_report = IQSEngine(ranks).run(qc)
    print(f"IQS baseline:                {iqs_report.summary()}")
    print(
        f"\nimprovement factor (IQS/HiSVSIM): "
        f"{iqs_report.total_seconds / run_report.total_seconds:.2f}x"
    )


if __name__ == "__main__":
    main()
