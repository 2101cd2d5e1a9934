"""Fig. 7 — average per-rank communication time.

Shape asserted: dagP achieves the fastest communication on every
instance against IQS, and IQS's gap widens on the wider circuits.
"""

from repro.analysis.tables import geomean
from repro.experiments import fig7

from _harness import run_once


def test_fig7(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: fig7.run(scale))
    save_result(f"fig7_{scale.name}", res.table())

    gaps_small, gaps_large = [], []
    for c in res.sweep.circuits():
        for r in res.sweep.ranks(c):
            dagp = res.value(c, r, "dagP")
            intel = res.value(c, r, "Intel")
            assert dagp <= intel * 1.001, (c, r)
            if intel > 0 and dagp > 0:
                (gaps_large if any(ch.isdigit() for ch in c) else gaps_small).append(
                    intel / dagp
                )
    assert geomean(gaps_large) > 1.0
    print(
        f"IQS/dagP comm gap: small group {geomean(gaps_small):.1f}x, "
        f"large group {geomean(gaps_large):.1f}x"
    )


# -- repro.bench registration ------------------------------------------------

from repro import bench
from repro.experiments import SCALES


@bench.register(
    "fig7",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 7 per-rank communication time: IQS/dagP gap geomeans."""
    res = fig7.run(scale=SCALES[params["scale"]])
    gaps_small, gaps_large = [], []
    for c in res.sweep.circuits():
        for r in res.sweep.ranks(c):
            dagp = res.value(c, r, "dagP")
            intel = res.value(c, r, "Intel")
            if intel > 0 and dagp > 0:
                group = (
                    gaps_large if any(ch.isdigit() for ch in c) else gaps_small
                )
                group.append(intel / dagp)
    return bench.payload(
        metrics={
            "instances": len(gaps_small) + len(gaps_large),
            "gap_small_geomean": geomean(gaps_small),
            "gap_large_geomean": geomean(gaps_large),
        },
    )
