"""Fig. 10 — single- vs multi-level HiSVSIM at the largest rank counts.

Shape asserted: multi-level wins on at least 4 of the 5 circuits
(paper: all but qnn), positive mean reduction (paper 15.8%), and the
multi-level factor over IQS exceeds the single-level one (paper: up to
5.67x vs 3.9x).
"""

from repro.experiments import fig10

from _harness import run_once


def test_fig10(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: fig10.run(scale))
    save_result(f"fig10_{scale.name}", res.table())

    assert len(res.rows) == 5
    wins = sum(1 for r in res.rows if r.reduction > 0)
    assert wins >= 4
    assert res.mean_reduction() > 0
    best_factor = max(r.factor_over_iqs_multi for r in res.rows)
    print(
        f"mean reduction {100 * res.mean_reduction():.1f}% (paper 15.8%), "
        f"best multi-level factor over IQS {best_factor:.2f} (paper 5.67)"
    )
    assert best_factor > 1.0


# -- repro.bench registration ------------------------------------------------

from repro import bench
from repro.experiments import SCALES


@bench.register(
    "fig10",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 10 single- vs multi-level HiSVSIM at the largest rank counts."""
    res = fig10.run(scale=SCALES[params["scale"]])
    return bench.payload(
        metrics={
            "rows": len(res.rows),
            "multilevel_wins": sum(1 for r in res.rows if r.reduction > 0),
            "mean_reduction": res.mean_reduction(),
            "best_factor_over_iqs": max(
                r.factor_over_iqs_multi for r in res.rows
            ),
        },
    )
