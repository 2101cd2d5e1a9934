"""Fused vs. unfused part execution (the Sec. II-C "orthogonal and
complementary" claim, quantified).

Compares hierarchical execution of the same partition with part-level
gate fusion on and off: kernel sweeps per part and agreement of both
final states with the flat simulator.  The acceptance
bar for the fusion pipeline is encoded in
``test_qft20_sweep_reduction_at_least_2x``: on a 20-qubit QFT at
``max_fused_qubits=5`` every part must execute in at most half the
sweeps of one-GEMM-per-gate execution.

The sweep-reduction floor is environment-overridable
(``REPRO_BENCH_FUSION_MIN_SWEEP_REDUCTION``, default ``2.0``) so CI
smoke runs on loaded runners can't flake on the acceptance bar.

``fusion_bind`` covers the other half of a compiled plan: binding
fresh matrices against structures compiled once (what every job of a
parameter sweep pays).  Its gated metrics are exact counts plus agreement
with the sequential gate-by-gate product; bind seconds are the perf
harness's ``fusion.bind_s``.

Also runnable without pytest for CI smoke (shared ``repro.bench`` flags)::

    python benchmarks/bench_fusion.py --set qubits=12 --set max_fused=4
"""

from __future__ import annotations

import os
import random

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.partition import get_partitioner
from repro.sv import (
    ExecutionTrace,
    HierarchicalExecutor,
    StateVectorSimulator,
    compile_partition,
    zero_state,
)
from repro.sv.fusion import build_part_structure
from repro.sv.kernels import apply_gate_batched

QFT_QUBITS = 20
MAX_FUSED = 5


def min_sweep_reduction() -> float:
    """Acceptance floor for fused sweep reduction (env-overridable)."""
    value = os.environ.get("REPRO_BENCH_FUSION_MIN_SWEEP_REDUCTION")
    return 2.0 if value in (None, "") else float(value)


def _build(num_qubits=QFT_QUBITS, limit=None, name="qft"):
    qc = generators.build(name, num_qubits)
    p = get_partitioner("dagP").partition(
        qc, limit or max(3, num_qubits - 3)
    )
    return qc, p


def run_comparison(num_qubits=QFT_QUBITS, max_fused=MAX_FUSED, name="qft",
                   verify=False):
    """Execute fused and unfused, return a result dict."""
    qc, p = _build(num_qubits, name=name)
    rows = []
    states = {}
    for fuse in (False, True):
        trace = ExecutionTrace()
        ex = HierarchicalExecutor(fuse=fuse, max_fused_qubits=max_fused)
        state = zero_state(qc.num_qubits)
        ex.run(qc, p, state, trace=trace)
        rows.append(
            {
                "fuse": fuse,
                "sweeps": trace.total_ops,
                "gates": trace.total_gates,
                "per_part": list(
                    zip(trace.part_gates, trace.part_ops)
                ),
            }
        )
        states[fuse] = state
    err = None
    if verify:
        sim = StateVectorSimulator(qc.num_qubits)
        sim.run(qc)
        err = max(
            float(np.max(np.abs(states[f] - sim.state))) for f in states
        )
    return {
        "circuit": qc.name,
        "parts": p.num_parts,
        "max_fused": max_fused,
        "unfused": rows[0],
        "fused": rows[1],
        "max_err": err,
    }


def render(res) -> str:
    u, f = res["unfused"], res["fused"]
    lines = [
        f"Part-level gate fusion — {res['circuit']} "
        f"(parts={res['parts']}, max_fused_qubits={res['max_fused']})",
        f"{'':>10} {'sweeps':>8}",
        f"{'unfused':>10} {u['sweeps']:>8}",
        f"{'fused':>10} {f['sweeps']:>8}",
        f"sweep reduction: {u['sweeps'] / max(f['sweeps'], 1):.1f}x "
        f"({u['sweeps']} -> {f['sweeps']} over {res['parts']} parts)",
    ]
    per = ", ".join(f"{g}->{o}" for g, o in f["per_part"])
    lines.append(f"per-part gates->sweeps: {per}")
    if res["max_err"] is not None:
        lines.append(f"max |state - flat| = {res['max_err']:.3e}")
    return "\n".join(lines)


# -- pytest-benchmark entry points ------------------------------------------


def test_qft20_sweep_reduction_at_least_2x(save_result):
    """Acceptance: >= 2x fewer GEMM sweeps per part on qft20 @ cap 5
    (floor overridable via REPRO_BENCH_FUSION_MIN_SWEEP_REDUCTION)."""
    floor = min_sweep_reduction()
    qc, p = _build(QFT_QUBITS)
    plans = compile_partition(qc, p, fuse=True, max_fused_qubits=MAX_FUSED)
    for plan in plans:
        assert plan.num_ops * floor <= plan.num_source_gates, (
            f"part fused {plan.num_source_gates} gates into "
            f"{plan.num_ops} sweeps (< {floor}x)"
        )
    total_gates = sum(pl.num_source_gates for pl in plans)
    total_ops = sum(pl.num_ops for pl in plans)
    save_result(
        "bench_fusion_qft20_sweeps",
        f"qft20 @ max_fused_qubits={MAX_FUSED}: "
        f"{total_gates} gate sweeps -> {total_ops} fused sweeps "
        f"({total_gates / total_ops:.1f}x)",
    )


def test_fused_execution(benchmark):
    qc, p = _build(16)
    ex = HierarchicalExecutor(fuse=True, max_fused_qubits=MAX_FUSED)
    ex.run(qc, p, zero_state(16))  # compile outside the timed region
    benchmark(lambda: ex.run(qc, p, zero_state(16)))


def test_unfused_execution(benchmark):
    qc, p = _build(16)
    ex = HierarchicalExecutor(fuse=False)
    ex.run(qc, p, zero_state(16))
    benchmark(lambda: ex.run(qc, p, zero_state(16)))


def test_fusion_comparison_table(save_result):
    res = run_comparison(16, MAX_FUSED, verify=True)
    assert res["max_err"] is not None and res["max_err"] < 1e-10
    assert (
        res["unfused"]["sweeps"]
        >= min_sweep_reduction() * res["fused"]["sweeps"]
    )
    save_result("bench_fusion_comparison", render(res))


# -- repro.bench registration and standalone entry point ---------------------


@bench.register(
    "fusion",
    tags=("smoke", "accept"),
    params={
        "qubits": QFT_QUBITS,
        "max_fused": MAX_FUSED,
        "circuit": "qft",
        "verify": True,
    },
    smoke={"qubits": 12, "max_fused": 4},
)
def run_bench(params):
    """Fused vs unfused hierarchical execution: sweeps saved per part."""
    res = run_comparison(
        params["qubits"],
        params["max_fused"],
        params["circuit"],
        verify=params["verify"],
    )
    unfused, fused = res["unfused"], res["fused"]
    states_match = res["max_err"] is None or res["max_err"] < 1e-10
    return bench.payload(
        metrics={
            "parts": res["parts"],
            "gates": unfused["gates"],
            "unfused_sweeps": unfused["sweeps"],
            "fused_sweeps": fused["sweeps"],
            "sweep_reduction": unfused["sweeps"] / max(fused["sweeps"], 1),
            "states_match": states_match,
        },
        info={"max_err": res["max_err"]},
        ok=states_match,
    )


def sequential_product(gates, group) -> np.ndarray:
    """A group's matrix the gate-by-gate way: every member swept over an
    identity through the batched kernel (the reference bind must match)."""
    k = len(group.qubits)
    pos = {q: i for i, q in enumerate(group.qubits)}
    cols = np.eye(1 << k, dtype=np.complex128)
    for m in group.members:
        apply_gate_batched(cols, gates[m].remap(pos), k)
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
    parts = get_partitioner("dagP").partition(first, max(3, n - 3)).parts
    structures = [
        build_part_structure(first, p.gate_indices, p.qubits) for p in parts
    ]
    max_dev = 0.0
    for qc in [first] + [fresh() for _ in range(params["binds"] - 1)]:
        for structure, part in zip(structures, parts):
            gates = [qc[g] for g in part.gate_indices]
            plan = structure.bind(gates)
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
        ok=agrees,
    )


def main(argv=None) -> int:
    return bench.script_main("fusion", argv)


if __name__ == "__main__":
    raise SystemExit(main())
