"""Table I — regenerate the benchmark-suite inventory."""

from repro.experiments import table1

from _harness import run_once


def test_table1(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: table1.run(scale))
    save_result(f"table1_{scale.name}", res.table())
    assert len(res.rows) == 13
    # Gate counts stay within a factor ~3 of the paper at matched width
    # structure (exact counts depend on decomposition choices).
    for row in res.rows:
        assert row.gates > 0


# -- repro.bench registration ------------------------------------------------

from repro import bench
from repro.experiments import SCALES


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
    )
