"""Table III — QAOA partitioning breakdown with GPU part times.

Runs at the paper's exact configuration (qaoa-28, 4 GPUs, 26 local
qubits); amplitudes are never materialised.  Shape asserted: dagP fewest
parts, every strategy's parts cover all gates, and per-part GPU times sit
in the paper's 10-400 ms band.
"""

from repro.experiments import table3

from _harness import run_once


def test_table3(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: table3.run(num_qubits=28, num_gpus=4))
    save_result(f"table3_{scale.name}", res.table())

    est = res.estimates
    assert est["dagP"].num_parts <= est["DFS"].num_parts <= est["Nat"].num_parts
    for strategy, e in est.items():
        assert sum(r.gates for r in e.rows) == res.total_gates, strategy
        for row in e.rows:
            assert 0.0 <= row.gpu_seconds < 1.0
    # Total GPU time roughly strategy-independent (paper: 329-366 ms).
    times = [e.gpu_seconds for e in est.values()]
    assert max(times) < 3 * min(times)


# -- repro.bench registration ------------------------------------------------

from repro import bench


@bench.register(
    "table3",
    tags=("paper",),
    params={"qubits": 28, "gpus": 4},
    smoke={"qubits": 16},
)
def run_bench(params):
    """Table III QAOA partitioning breakdown with modeled GPU part times."""
    res = table3.run(num_qubits=params["qubits"], num_gpus=params["gpus"])
    metrics = {"total_gates": res.total_gates}
    for strategy, est in res.estimates.items():
        metrics[f"{strategy}_parts"] = est.num_parts
        metrics[f"{strategy}_gpu_s"] = est.gpu_seconds
    return bench.payload(metrics)
