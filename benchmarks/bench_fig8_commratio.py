"""Fig. 8 — geometric-mean communication ratio by rank count.

Shape claimed: dagP has the lowest ratio at every rank count, strictly
below IQS (paper: IQS 30-45%, dagP the flattest line).
"""

from repro import bench
from repro.experiments import SCALES
from repro.experiments.sweep import run_sweep


@bench.register(
    "fig8",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 8 geometric-mean communication ratio by rank count."""
    sweep = run_sweep(SCALES[params["scale"]])
    ratios = sweep.comm_ratios()
    rank_counts = sorted({k[1] for k in ratios})
    with_dagp = [r for r in rank_counts if ("dagP", r) in ratios]
    dagp_lowest = all(
        ratios[("dagP", r)]
        == min(v for (a, rr), v in ratios.items() if rr == r)
        for r in with_dagp
    )
    metrics = {
        "rank_counts": len(rank_counts),
        "points": len(ratios),
        "dagp_lowest_everywhere": dagp_lowest,
    }
    for r in with_dagp:
        metrics[f"dagp_ratio_{r}"] = ratios[("dagP", r)]
    return bench.payload(
        metrics,
        info={"table": sweep.fig8_table()},
        ok={
            "dagP has the lowest comm ratio at every rank count": dagp_lowest,
            "dagP comm ratio < IQS at every rank count": all(
                ratios[("dagP", r)] < ratios[("Intel", r)]
                for r in with_dagp
                if ("Intel", r) in ratios
            ),
        },
    )
