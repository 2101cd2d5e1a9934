"""Stabilizer tableau vs dense part sweeps on Clifford circuits.

The per-part engine routing's headline claim, checked: an all-Clifford
circuit (GHZ / ``cat_state``) must route every part through the
stabilizer tableau engine — which updates ``O(n)`` bitmask rows per
gate while the dense path sweeps ``2^n`` amplitudes per part — and
agree phase-exactly (``1e-10``) with dense hierarchical execution of
the same partition.  A Clifford+T mix checks the hybrid route: under
``auto`` its leading Clifford parts run on the tableau, one conversion
hands the state to the dense suffix, and the amplitudes agree with
dense execution to ``1e-10``.  The wall-clock ratio is the perf
harness's ``stabilizer.auto_run_s`` vs ``stabilizer.forced_run_s``.
"""

from __future__ import annotations

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.partition import get_partitioner
from repro.serve import default_limit
from repro.sv import (
    ExecutionTrace,
    HierarchicalExecutor,
    StabilizerState,
    zero_state,
)

#: Width of the Clifford+T mix whose prefix must route to the tableau.
MIX_QUBITS = 14


def mix_prefix_route(n: int = MIX_QUBITS):
    """A Clifford+T mix (random Clifford prefix, a ``t`` layer, an Ising
    suffix, like the perf harness's ``mix`` family) under ``auto``:
    ``(leading tableau parts, boundary conversions, max |auto - dense|)``.
    """
    qc = QuantumCircuit(n, name=f"mix{n}")
    qc.compose(generators.stabilizer_random(n, seed=11))
    for q in range(n):
        qc.t(q)
    qc.compose(generators.ising(n, steps=2))
    p = get_partitioner("dagP").partition(qc, default_limit(n))
    auto_ex = HierarchicalExecutor(method="auto")
    trace = ExecutionTrace()
    state = auto_ex.run(qc, p, auto_ex.initial_state(qc), trace)
    dense = HierarchicalExecutor(method="dense").run(qc, p, zero_state(n))
    lead = 0
    while lead < p.num_parts and trace.part_engines[lead] == "stabilizer":
        lead += 1
    max_err = float(np.max(np.abs(state - dense)))
    return lead, trace.boundary_conversions, max_err


@bench.register(
    "stabilizer",
    tags=("smoke", "accept"),
    params={"qubits": 24, "circuit": "cat_state", "verify": True},
    smoke={"qubits": 18},
)
def run_bench(params):
    """Stabilizer tableau vs dense execution on an all-Clifford GHZ."""
    qc = generators.build(params["circuit"], params["qubits"])
    p = get_partitioner("dagP").partition(qc, default_limit(qc.num_qubits))

    dense_trace = ExecutionTrace()
    dense_state = zero_state(qc.num_qubits)
    HierarchicalExecutor(method="dense").run(qc, p, dense_state, dense_trace)

    stab_ex = HierarchicalExecutor(method="auto")
    stab_trace = ExecutionTrace()
    stab_state = stab_ex.run(qc, p, stab_ex.initial_state(qc), stab_trace)
    routed = isinstance(stab_state, StabilizerState)

    max_err = None
    if params["verify"] and routed:
        max_err = float(np.max(np.abs(stab_state.to_dense() - dense_state)))
    states_match = max_err is None or max_err < 1e-10
    stabilizer_parts = stab_trace.engine_parts.get("stabilizer", 0)
    routed_all = (
        routed
        and stabilizer_parts == p.num_parts
        and stab_trace.boundary_conversions == 0
    )
    mix_lead, mix_conversions, mix_err = mix_prefix_route()
    mix_routed = mix_lead >= 1 and mix_conversions == 1 and mix_err < 1e-10
    return bench.payload(
        metrics={
            "qubits": qc.num_qubits,
            "parts": p.num_parts,
            "gates": len(qc),
            "dense_sweeps": dense_trace.total_ops,
            "stabilizer_parts": stabilizer_parts,
            "boundary_conversions": stab_trace.boundary_conversions,
            "routed_all_stabilizer": routed_all,
            "states_match": states_match,
        },
        info={"max_err": max_err},
        ok={
            "tableau state matches dense execution to 1e-10": states_match,
            "every part runs on the tableau, no boundary conversion":
                routed_all,
            f"a {MIX_QUBITS}-qubit Clifford+T mix runs its leading parts on "
            "the tableau under auto, converts once and matches dense to "
            "1e-10": mix_routed,
        },
    )
