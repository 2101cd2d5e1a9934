"""Fig. 8 — geometric-mean communication ratio by rank count.

Shape asserted: dagP has the lowest ratio at every rank count; IQS the
highest (paper: IQS 30-45%, dagP the flattest line).
"""

from repro.experiments import fig8

from _harness import run_once


def test_fig8(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: fig8.run(scale))
    save_result(f"fig8_{scale.name}", res.table())

    rank_counts = sorted({k[1] for k in res.ratios})
    for ranks in rank_counts:
        vals = {
            a: res.ratios.get((a, ranks))
            for a in ("Nat", "DFS", "dagP", "Intel")
        }
        present = {a: v for a, v in vals.items() if v is not None}
        if "dagP" in present and "Intel" in present:
            assert present["dagP"] < present["Intel"], ranks
        if "dagP" in present:
            assert present["dagP"] == min(present.values()), ranks


# -- repro.bench registration ------------------------------------------------

from repro import bench
from repro.experiments import SCALES


@bench.register(
    "fig8",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 8 geometric-mean communication ratio by rank count."""
    res = fig8.run(scale=SCALES[params["scale"]])
    rank_counts = sorted({k[1] for k in res.ratios})
    dagp_lowest = all(
        res.ratios[("dagP", r)]
        == min(v for (a, rr), v in res.ratios.items() if rr == r)
        for r in rank_counts
        if ("dagP", r) in res.ratios
    )
    metrics = {
        "rank_counts": len(rank_counts),
        "points": len(res.ratios),
        "dagp_lowest_everywhere": dagp_lowest,
    }
    for r in rank_counts:
        if ("dagP", r) in res.ratios:
            metrics[f"dagp_ratio_{r}"] = res.ratios[("dagP", r)]
    return bench.payload(metrics)
