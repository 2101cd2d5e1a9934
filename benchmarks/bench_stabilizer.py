"""Stabilizer tableau vs dense part sweeps on Clifford circuits.

The per-part engine routing's headline claim, checked: an all-Clifford
circuit (GHZ / ``cat_state``) must route every part through the
stabilizer tableau engine — which updates ``O(n)`` bitmask rows per
gate while the dense path sweeps ``2^n`` amplitudes per part — and
agree phase-exactly (``1e-10``) with dense hierarchical execution of
the same partition.  The wall-clock ratio is the perf harness's
``stabilizer.auto_run_s`` vs ``stabilizer.forced_run_s``.

Also runnable without pytest for CI smoke (shared ``repro.bench``
flags)::

    python benchmarks/bench_stabilizer.py --set qubits=18
"""

from __future__ import annotations

import numpy as np

from repro import bench

from repro.circuits import generators
from repro.partition import get_partitioner
from repro.sv import (
    ExecutionTrace,
    HierarchicalExecutor,
    StabilizerState,
    zero_state,
)

GHZ_QUBITS = 24
SMOKE_QUBITS = 18


def _build(num_qubits=GHZ_QUBITS, name="cat_state"):
    qc = generators.build(name, num_qubits)
    p = get_partitioner("dagP").partition(qc, max(3, num_qubits - 3))
    return qc, p


def run_comparison(num_qubits=GHZ_QUBITS, name="cat_state", verify=True):
    """Run the same partition dense and via the tableau, return a dict."""
    qc, p = _build(num_qubits, name)

    dense_ex = HierarchicalExecutor(method="dense")
    dense_trace = ExecutionTrace()
    dense_state = zero_state(qc.num_qubits)
    dense_ex.run(qc, p, dense_state, dense_trace)

    stab_ex = HierarchicalExecutor(method="auto")
    stab_trace = ExecutionTrace()
    stab_state = stab_ex.run(qc, p, stab_ex.initial_state(qc), stab_trace)
    routed = isinstance(stab_state, StabilizerState)

    err = None
    if verify and routed:
        err = float(
            np.max(np.abs(stab_state.to_dense() - dense_state))
        )
    return {
        "circuit": qc.name,
        "qubits": qc.num_qubits,
        "gates": len(qc),
        "parts": p.num_parts,
        "dense_sweeps": dense_trace.total_ops,
        "stabilizer_parts": stab_trace.engine_parts.get("stabilizer", 0),
        "boundary_conversions": stab_trace.boundary_conversions,
        "routed": routed,
        "max_err": err,
    }


def render(res) -> str:
    lines = [
        f"Stabilizer fast path — {res['circuit']} "
        f"(parts={res['parts']}, gates={res['gates']})",
        f"{'dense':>12}: "
        f"{res['dense_sweeps']} sweeps over 2^{res['qubits']} amplitudes",
        f"{'tableau':>12}: "
        f"{res['stabilizer_parts']} parts routed, "
        f"{res['boundary_conversions']} boundary conversions",
    ]
    if res["max_err"] is not None:
        lines.append(f"max |tableau - dense| = {res['max_err']:.3e}")
    return "\n".join(lines)


# -- pytest-benchmark entry points ------------------------------------------


def test_ghz_routes_to_stabilizer(save_result):
    """Acceptance: every part of the GHZ benchmark runs on the tableau
    engine and the result matches dense execution phase-exactly."""
    res = run_comparison(SMOKE_QUBITS)
    assert res["routed"], "all-Clifford circuit did not route to tableau"
    assert res["stabilizer_parts"] == res["parts"]
    assert res["boundary_conversions"] == 0
    assert res["max_err"] is not None and res["max_err"] < 1e-10
    save_result("bench_stabilizer_ghz", render(res))


def test_stabilizer_execution(benchmark):
    qc, p = _build(SMOKE_QUBITS)
    ex = HierarchicalExecutor(method="auto")
    benchmark(lambda: ex.run(qc, p, ex.initial_state(qc)))


# -- repro.bench registration and standalone entry point ---------------------


@bench.register(
    "stabilizer",
    tags=("smoke", "accept"),
    params={
        "qubits": GHZ_QUBITS,
        "circuit": "cat_state",
        "verify": True,
    },
    smoke={"qubits": SMOKE_QUBITS},
)
def run_bench(params):
    """Stabilizer tableau vs dense execution on an all-Clifford GHZ."""
    res = run_comparison(
        params["qubits"], params["circuit"], verify=params["verify"]
    )
    states_match = res["max_err"] is None or res["max_err"] < 1e-10
    routed_all = (
        res["routed"]
        and res["stabilizer_parts"] == res["parts"]
        and res["boundary_conversions"] == 0
    )
    return bench.payload(
        metrics={
            "qubits": res["qubits"],
            "parts": res["parts"],
            "gates": res["gates"],
            "dense_sweeps": res["dense_sweeps"],
            "stabilizer_parts": res["stabilizer_parts"],
            "boundary_conversions": res["boundary_conversions"],
            "routed_all_stabilizer": routed_all,
            "states_match": states_match,
        },
        info={"max_err": res["max_err"]},
        ok=states_match and routed_all,
    )


def main(argv=None) -> int:
    return bench.script_main("stabilizer", argv)


if __name__ == "__main__":
    raise SystemExit(main())
