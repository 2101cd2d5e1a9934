"""Table III — QAOA partitioning breakdown with GPU part times.

Registered at the paper's exact configuration (qaoa-28, 4 GPUs, 26 local
qubits); amplitudes are never materialised.  Shape claimed: dagP fewest
parts, every strategy's parts cover all gates, per-part GPU times below
a second and total GPU time roughly strategy-independent (paper:
329-366 ms).
"""

from repro import bench
from repro.experiments import table3


@bench.register(
    "table3",
    tags=("paper",),
    params={"qubits": 28, "gpus": 4},
    smoke={"qubits": 16},
)
def run_bench(params):
    """Table III QAOA partitioning breakdown with modeled GPU part times."""
    res = table3.run(num_qubits=params["qubits"], num_gpus=params["gpus"])
    est = res.estimates
    metrics = {"total_gates": res.total_gates}
    for strategy, e in est.items():
        metrics[f"{strategy}_parts"] = e.num_parts
        metrics[f"{strategy}_gpu_s"] = e.gpu_seconds
    totals = [e.gpu_seconds for e in est.values()]
    return bench.payload(
        metrics,
        info={"table": res.table()},
        ok={
            "parts: dagP <= DFS <= Nat": (
                est["dagP"].num_parts
                <= est["DFS"].num_parts
                <= est["Nat"].num_parts
            ),
            "every strategy's parts cover all gates": all(
                sum(r.gates for r in e.rows) == res.total_gates
                for e in est.values()
            ),
            "every part's GPU time is in [0, 1) s": all(
                0.0 <= r.gpu_seconds < 1.0
                for e in est.values()
                for r in e.rows
            ),
            "total GPU time within 3x across strategies": (
                max(totals) < 3 * min(totals)
            ),
        },
    )
