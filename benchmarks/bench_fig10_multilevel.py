"""Fig. 10 — single- vs multi-level HiSVSIM at the largest rank counts.

Shape claimed: multi-level wins on at least 4 of the 5 circuits
(paper: all but qnn), positive mean reduction (paper 15.8%), and the
best multi-level factor over IQS exceeds 1 (paper: up to 5.67x).
"""

from repro import bench
from repro.experiments import SCALES, fig10


@bench.register(
    "fig10",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 10 single- vs multi-level HiSVSIM at the largest rank counts."""
    res = fig10.run(scale=SCALES[params["scale"]])
    wins = sum(1 for r in res.rows if r.reduction > 0)
    best_factor = max(r.factor_over_iqs_multi for r in res.rows)
    return bench.payload(
        metrics={
            "rows": len(res.rows),
            "multilevel_wins": wins,
            "mean_reduction": res.mean_reduction(),
            "best_factor_over_iqs": best_factor,
        },
        info={"table": res.table()},
        ok={
            "all 5 two-level circuits ran": len(res.rows) == 5,
            "multi-level wins on >= 4 circuits": wins >= 4,
            "mean reduction > 0": res.mean_reduction() > 0,
            "best multi-level factor over IQS > 1": best_factor > 1.0,
        },
    )
