"""Table I — the benchmark-suite inventory."""

from repro import bench
from repro.experiments import SCALES, table1


@bench.register(
    "table1",
    tags=("smoke", "paper"),
    params={"scale": "small"},
)
def run_bench(params):
    """Table I suite inventory: 13 circuit families, gate/depth counts."""
    res = table1.run(scale=SCALES[params["scale"]])
    return bench.payload(
        metrics={
            "rows": len(res.rows),
            "total_gates": sum(r.gates for r in res.rows),
            "total_qubits": sum(r.qubits for r in res.rows),
            "max_depth": max(r.depth for r in res.rows),
        },
        info={"table": res.table()},
        ok={
            "the suite has the paper's 13 circuits": len(res.rows) == 13,
            "every circuit has gates": all(r.gates > 0 for r in res.rows),
        },
    )
