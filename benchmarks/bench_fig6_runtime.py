"""Fig. 6 — strong-scaling runtimes per circuit.

Shape asserted (paper's observations I-III): every algorithm speeds up
with rank count on most circuits, and HiSVSIM's computation share never
exceeds IQS's.
"""

from repro.experiments import fig6

from _harness import run_once


def test_fig6(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: fig6.run(scale))
    save_result(f"fig6_{scale.name}", res.table())

    circuits = res.sweep.circuits()
    # (I) close-to-linear speedup: require speedup on most circuits.
    improving = sum(1 for c in circuits if res.speedup(c, "dagP") > 1.0)
    assert improving >= int(0.8 * len(circuits))
    # (III) HiSVSIM computation beats IQS computation everywhere.
    for c in circuits:
        for r in res.sweep.ranks(c):
            dag = next(
                x
                for x in res.rows
                if (x.circuit, x.ranks, x.algorithm) == (c, r, "dagP")
            )
            iqs = next(
                x
                for x in res.rows
                if (x.circuit, x.ranks, x.algorithm) == (c, r, "Intel")
            )
            assert dag.comp_seconds <= iqs.comp_seconds * 1.01


# -- repro.bench registration ------------------------------------------------

from repro import bench
from repro.experiments import SCALES


@bench.register(
    "fig6",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 6 strong-scaling runtime decomposition (modeled)."""
    res = fig6.run(scale=SCALES[params["scale"]])
    circuits = res.sweep.circuits()
    return bench.payload(
        metrics={
            "circuits": len(circuits),
            "rows": len(res.rows),
            "dagp_improving": sum(
                1 for c in circuits if res.speedup(c, "dagP") > 1.0
            ),
        },
    )
