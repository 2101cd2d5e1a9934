"""Table II — memory-access breakdown for bv and ising.

Paper shape claimed: for both circuits dagP <= DFS <= Nat on execution
time, and dagP has a DRAM clocktick share and a memory-bound share no
higher than Nat's.
"""

from repro import bench
from repro.experiments import table2


@bench.register(
    "table2",
    tags=("paper",),
    params={"qubits": 30, "limit": 16},
    smoke={"qubits": 20, "limit": 12},
)
def run_bench(params):
    """Table II memory-access breakdown (modeled) for bv and ising."""
    res = table2.run(num_qubits=params["qubits"], limit=params["limit"])
    metrics, claims = {}, {}
    for circuit in ("bv", "ising"):
        nat, dfs, dagp = (
            res.by(circuit, strategy) for strategy in ("Nat", "DFS", "dagP")
        )
        for row in (nat, dfs, dagp):
            metrics[f"{circuit}_{row.strategy}_parts"] = row.parts
            metrics[f"{circuit}_{row.strategy}_exec_s"] = row.exec_seconds
            metrics[f"{circuit}_{row.strategy}_dram_pct"] = row.dram_pct
        claims[f"{circuit}: exec time dagP <= DFS <= Nat"] = (
            dagp.exec_seconds <= dfs.exec_seconds <= nat.exec_seconds
        )
        claims[f"{circuit}: DRAM share dagP <= Nat"] = (
            dagp.dram_pct <= nat.dram_pct
        )
        claims[f"{circuit}: memory-bound share dagP <= Nat"] = (
            dagp.mem_bound_pct <= nat.mem_bound_pct
        )
    return bench.payload(metrics, info={"table": res.table()}, ok=claims)
