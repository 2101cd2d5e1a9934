"""Table II — memory-access breakdown for bv and ising.

Paper shape asserted: for both circuits, dagP <= DFS <= Nat on execution
time, and dagP has the lowest DRAM clocktick share and memory-bound share.
"""

from repro.experiments import table2

from _harness import run_once


def test_table2(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: table2.run(scale=scale))
    save_result(f"table2_{scale.name}", res.table())
    for circuit in ("bv", "ising"):
        nat = res.by(circuit, "Nat")
        dfs = res.by(circuit, "DFS")
        dagp = res.by(circuit, "dagP")
        assert dagp.exec_seconds <= dfs.exec_seconds <= nat.exec_seconds
        assert dagp.dram_pct <= nat.dram_pct
        assert dagp.mem_bound_pct <= nat.mem_bound_pct


# -- repro.bench registration ------------------------------------------------

from repro import bench


@bench.register(
    "table2",
    tags=("paper",),
    params={"qubits": 30, "limit": 16},
    smoke={"qubits": 20, "limit": 12},
)
def run_bench(params):
    """Table II memory-access breakdown (modeled) for bv and ising."""
    res = table2.run(num_qubits=params["qubits"], limit=params["limit"])
    metrics = {}
    for circuit in ("bv", "ising"):
        for strategy in ("Nat", "DFS", "dagP"):
            row = res.by(circuit, strategy)
            metrics[f"{circuit}_{strategy}_parts"] = row.parts
            metrics[f"{circuit}_{strategy}_exec_s"] = row.exec_seconds
            metrics[f"{circuit}_{strategy}_dram_pct"] = row.dram_pct
    return bench.payload(metrics)
