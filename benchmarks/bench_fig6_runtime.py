"""Fig. 6 — strong-scaling runtimes per circuit.

Shape claimed (paper's observations I and III): dagP speeds up with rank
count on most circuits, and HiSVSIM's computation share never exceeds
IQS's.
"""

from repro import bench
from repro.experiments import SCALES
from repro.experiments.sweep import run_sweep


@bench.register(
    "fig6",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 6 strong-scaling runtime decomposition (modeled)."""
    sweep = run_sweep(SCALES[params["scale"]])
    circuits = sweep.circuits()
    improving = sum(1 for c in circuits if sweep.speedup(c, "dagP") > 1.0)
    claims = {
        "(III) HiSVSIM comp <= IQS comp everywhere (1 % slack)": all(
            sweep.get(c, r, "dagP").comp_seconds
            <= sweep.get(c, r, "Intel").comp_seconds * 1.01
            for c, r in sweep.instances()
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
            "rows": len(sweep.reports),
            "dagp_improving": improving,
        },
        info={"table": sweep.fig6_table()},
        ok=claims,
    )
