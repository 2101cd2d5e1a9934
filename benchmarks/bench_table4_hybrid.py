"""Table IV — hybrid HiSVSIM+HyQuas end-to-end estimate.

Shape claimed: communication ordered dagP <= DFS <= Nat (paper
0.5/1.0/2.4 s), computation roughly equal across strategies (paper
0.33-0.37 s), and hybrid-dagP beats plain HyQuas (paper 0.83 vs 1.47 s).
"""

from repro import bench
from repro.experiments import table4


@bench.register(
    "table4",
    tags=("paper",),
    params={"qubits": 28, "gpus": 4},
    smoke={"qubits": 16},
)
def run_bench(params):
    """Table IV hybrid HiSVSIM+HyQuas end-to-end estimate (modeled)."""
    res = table4.run(num_qubits=params["qubits"], num_gpus=params["gpus"])
    est = res.estimates
    metrics = {}
    for strategy, e in est.items():
        metrics[f"{strategy}_total_s"] = e.total_seconds
        if strategy != "HyQuas":
            metrics[f"{strategy}_comm_s"] = e.comm_seconds
    comps = [est[s].gpu_seconds for s in ("Nat", "DFS", "dagP")]
    return bench.payload(
        metrics,
        info={"table": res.table()},
        ok={
            "comm: dagP <= DFS <= Nat (5 % slack)": (
                est["dagP"].comm_seconds <= est["DFS"].comm_seconds * 1.05
                and est["DFS"].comm_seconds <= est["Nat"].comm_seconds * 1.05
            ),
            "computation within 1.5x across strategies": (
                max(comps) < 1.5 * min(comps)
            ),
            "hybrid dagP beats plain HyQuas": (
                est["dagP"].total_seconds < est["HyQuas"].total_seconds
            ),
        },
    )
