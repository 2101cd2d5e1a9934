"""Fused vs. unfused part execution (the Sec. II-C "orthogonal and
complementary" claim, quantified).

Compares hierarchical execution of the same partition with part-level
gate fusion on and off: kernel sweeps per part and agreement of both
final states with the flat simulator.  The acceptance bar for the fusion
pipeline is an exact count: fusion at least halves the kernel sweeps —
over the circuit, and in every part that has more than one gate to fuse
(registered: a 20-qubit QFT at ``max_fused_qubits=5``).  A second exact
count pins the kernel classification: ``diagonal_sweeps``, the fused
sweeps whose product is diagonal and therefore run copy-free — at least
half of a QFT's, because its ``u1·cx·u1·cx·u1`` controlled phases fuse
to diagonal products although ``cx`` is not a diagonal gate.  What fused
and unfused execution cost in seconds is the perf harness's
``hier.run_s.*`` / ``kernels.apply_s``.

``fusion_bind`` covers the other half of a compiled plan: binding
fresh matrices against structures compiled once (what every job of a
parameter sweep pays).  Its gated metrics are exact counts plus agreement
with the sequential gate-by-gate product; bind seconds are the perf
harness's ``fusion.bind_s``.
"""

from __future__ import annotations

import random

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.partition import get_partitioner
from repro.serve import default_limit
from repro.sv import (
    ExecutionTrace,
    HierarchicalExecutor,
    SerialBackend,
    StateVectorSimulator,
    zero_state,
)
from repro.sv.fusion import build_part_structure


@bench.register(
    "fusion",
    tags=("smoke", "accept"),
    params={"qubits": 20, "max_fused": 5, "circuit": "qft", "verify": True},
    smoke={"qubits": 12, "max_fused": 4},
)
def run_bench(params):
    """Fused vs unfused hierarchical execution: sweeps saved per part."""
    qc = generators.build(params["circuit"], params["qubits"])
    p = get_partitioner("dagP").partition(qc, default_limit(qc.num_qubits))
    traces, states = {}, {}
    for fuse in (False, True):
        traces[fuse] = ExecutionTrace()
        states[fuse] = zero_state(qc.num_qubits)
        HierarchicalExecutor(
            fuse=fuse, max_fused_qubits=params["max_fused"]
        ).run(qc, p, states[fuse], trace=traces[fuse])
    max_err = None
    if params["verify"]:
        sim = StateVectorSimulator(qc.num_qubits)
        sim.run(qc)
        max_err = max(
            float(np.max(np.abs(state - sim.state)))
            for state in states.values()
        )
    unfused, fused = traces[False].total_ops, traces[True].total_ops
    diagonal = traces[True].diagonal_ops
    per_part = list(zip(traces[True].part_gates, traces[True].part_ops))
    states_match = max_err is None or max_err < 1e-10
    return bench.payload(
        metrics={
            "parts": p.num_parts,
            "gates": traces[False].total_gates,
            "unfused_sweeps": unfused,
            "fused_sweeps": fused,
            "diagonal_sweeps": diagonal,
            "sweep_reduction": unfused / max(fused, 1),
            "states_match": states_match,
        },
        info={"max_err": max_err, "per_part_gates_to_sweeps": per_part},
        ok={
            "fused and unfused states match the flat simulator to 1e-10":
                states_match,
            "fusion at least halves the sweeps": unfused >= 2 * fused,
            "fusion at least halves the sweeps of every multi-gate part":
                all(gates >= 2 * ops for gates, ops in per_part if gates > 1),
            "a cx-conjugated phase ladder fuses to diagonal sweeps":
                2 * diagonal >= fused,
        },
    )


def sequential_product(gates, group) -> np.ndarray:
    """A group's matrix the gate-by-gate way: every member swept over an
    identity through the row kernel (the reference bind must match)."""
    k = len(group.qubits)
    pos = {q: i for i, q in enumerate(group.qubits)}
    cols = np.eye(1 << k, dtype=np.complex128)
    backend = SerialBackend()
    for m in group.members:
        gate = gates[m].remap(pos)
        backend.apply_matrix_rows(
            cols, gate.matrix(), gate.qubits, k, diagonal=gate.is_diagonal
        )
    return cols.T


@bench.register(
    "fusion_bind",
    tags=("smoke",),
    params={"qubits": 10, "rounds": 3, "binds": 50},
)
def run_bind_bench(params):
    """Bind fresh QAOA angles against part structures compiled once."""
    n, rounds = params["qubits"], params["rounds"]
    rng = random.Random(15)

    def fresh():
        return generators.qaoa(
            n,
            p=rounds,
            gammas=[rng.uniform(0.0, 3.0) for _ in range(rounds)],
            betas=[rng.uniform(0.0, 1.5) for _ in range(rounds)],
        )

    first = fresh()
    parts = get_partitioner("dagP").partition(first, default_limit(n)).parts
    structures = [
        build_part_structure(first, p.gate_indices, p.qubits) for p in parts
    ]
    max_dev = 0.0
    for qc in [first] + [fresh() for _ in range(params["binds"] - 1)]:
        for structure, part in zip(structures, parts):
            gates = [qc[g] for g in part.gate_indices]
            (plan,) = structure.bind([gates])
            for op, group in zip(plan.ops, structure.groups):
                dev = np.abs(op.matrix() - sequential_product(gates, group))
                max_dev = max(max_dev, float(dev.max()))
    tables = {
        id(step[-1])
        for structure in structures
        for steps in structure._program
        for step in steps
        if step[-1] is not None
    }
    agrees = max_dev <= 1e-12
    return bench.payload(
        metrics={
            "parts": len(parts),
            "groups": sum(s.num_ops for s in structures),
            "source_gates": sum(s.num_source_gates for s in structures),
            "index_tables": len(tables),
            "agrees_with_sequential": agrees,
        },
        info={"binds": params["binds"], "max_dev": max_dev},
        ok={"every bound matrix equals the gate-by-gate product to 1e-12":
            agrees},
    )
