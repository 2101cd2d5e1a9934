"""Fig. 8 — geometric-mean communication ratio by rank count.

Shape claimed: dagP has the lowest ratio at every rank count, strictly
below IQS (paper: IQS 30-45%, dagP the flattest line).
"""

from repro import bench
from repro.experiments import SCALES, fig8


@bench.register(
    "fig8",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 8 geometric-mean communication ratio by rank count."""
    res = fig8.run(scale=SCALES[params["scale"]])
    rank_counts = sorted({k[1] for k in res.ratios})
    with_dagp = [r for r in rank_counts if ("dagP", r) in res.ratios]
    dagp_lowest = all(
        res.ratios[("dagP", r)]
        == min(v for (a, rr), v in res.ratios.items() if rr == r)
        for r in with_dagp
    )
    metrics = {
        "rank_counts": len(rank_counts),
        "points": len(res.ratios),
        "dagp_lowest_everywhere": dagp_lowest,
    }
    for r in with_dagp:
        metrics[f"dagp_ratio_{r}"] = res.ratios[("dagP", r)]
    return bench.payload(
        metrics,
        info={"table": res.table()},
        ok={
            "dagP has the lowest comm ratio at every rank count": dagp_lowest,
            "dagP comm ratio < IQS at every rank count": all(
                res.ratios[("dagP", r)] < res.ratios[("Intel", r)]
                for r in with_dagp
                if ("Intel", r) in res.ratios
            ),
        },
    )
