"""Fig. 6 — strong-scaling runtimes per circuit.

Shape claimed (paper's observations I and III): dagP speeds up with rank
count on most circuits, and HiSVSIM's computation share never exceeds
IQS's.
"""

from repro import bench
from repro.experiments import SCALES, fig6


@bench.register(
    "fig6",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 6 strong-scaling runtime decomposition (modeled)."""
    res = fig6.run(scale=SCALES[params["scale"]])
    circuits = res.sweep.circuits()
    improving = sum(1 for c in circuits if res.speedup(c, "dagP") > 1.0)
    comp = {(r.circuit, r.ranks, r.algorithm): r.comp_seconds for r in res.rows}
    claims = {
        "(III) HiSVSIM comp <= IQS comp everywhere (1 % slack)": all(
            comp[c, ranks, "dagP"] <= comp[c, ranks, "Intel"] * 1.01
            for c in circuits
            for ranks in res.sweep.ranks(c)
        ),
    }
    if params["scale"] != "tiny":
        # tiny runs real 10-qubit amplitudes on 2-8 ranks, where latency
        # dominates and more ranks do not help.
        claims["(I) dagP speeds up with ranks on >= 80 % of circuits"] = (
            improving >= int(0.8 * len(circuits))
        )
    return bench.payload(
        metrics={
            "circuits": len(circuits),
            "rows": len(res.rows),
            "dagp_improving": improving,
        },
        info={"table": res.table()},
        ok=claims,
    )
