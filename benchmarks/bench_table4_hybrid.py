"""Table IV — hybrid HiSVSIM+HyQuas end-to-end estimate.

Shape asserted: communication ordered dagP <= DFS <= Nat (paper
0.5/1.0/2.4 s), computation roughly equal across strategies (paper
0.33-0.37 s), and hybrid-dagP beats plain HyQuas (paper 0.83 vs 1.47 s).
"""

from repro.experiments import table4

from _harness import run_once


def test_table4(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: table4.run(num_qubits=28, num_gpus=4))
    save_result(f"table4_{scale.name}", res.table())

    est = res.estimates
    assert est["dagP"].comm_seconds <= est["DFS"].comm_seconds * 1.05
    assert est["DFS"].comm_seconds <= est["Nat"].comm_seconds * 1.05
    comps = [est[s].gpu_seconds for s in ("Nat", "DFS", "dagP")]
    assert max(comps) < 1.5 * min(comps)
    assert est["dagP"].total_seconds < est["HyQuas"].total_seconds
    print(
        "totals (s): "
        + ", ".join(f"{s}={est[s].total_seconds:.2f}" for s in est)
        + "  (paper: dagP 0.83 < HyQuas 1.47)"
    )


# -- repro.bench registration ------------------------------------------------

from repro import bench


@bench.register(
    "table4",
    tags=("paper",),
    params={"qubits": 28, "gpus": 4},
    smoke={"qubits": 16},
)
def run_bench(params):
    """Table IV hybrid HiSVSIM+HyQuas end-to-end estimate (modeled)."""
    res = table4.run(num_qubits=params["qubits"], num_gpus=params["gpus"])
    metrics = {}
    for strategy, est in res.estimates.items():
        metrics[f"{strategy}_total_s"] = est.total_seconds
        if strategy != "HyQuas":
            metrics[f"{strategy}_comm_s"] = est.comm_seconds
    return bench.payload(metrics)
