"""Fig. 5 — improvement factors over IQS.

Shape asserted: dagP beats IQS on the vast majority of instances, the
geometric mean exceeds 1 (paper: 1.7x with dagP at max ranks ~2.1x), and
the >=35-qubit group shows larger factors than the 30-qubit group
(paper: 2.5-3.9x vs 1.15-2.2x).
"""

from repro.analysis.tables import geomean
from repro.experiments import fig5

from _harness import run_once


def test_fig5(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: fig5.run(scale))
    save_result(f"fig5_{scale.name}", res.table())

    factors = res.factors("dagP")
    wins = sum(1 for f in factors if f > 1.0)
    assert wins / len(factors) > 0.8
    assert res.geomean("dagP") > 1.0

    large = [
        r.factor
        for r in res.rows
        if r.strategy == "dagP" and any(ch.isdigit() for ch in r.circuit)
    ]
    small = [
        r.factor
        for r in res.rows
        if r.strategy == "dagP" and not any(ch.isdigit() for ch in r.circuit)
    ]
    if scale.name == "paper":
        # The >=35-qubit group has bigger factors — only meaningful at the
        # paper's widths/rank counts (at reduced scale, small circuits are
        # communication-dominated and the gap inverts).
        assert geomean(large) > geomean(small)

    print(
        f"dagP geomean={res.geomean('dagP'):.2f} (paper 1.7), "
        f"at max ranks={res.geomean_at_max_ranks('dagP'):.2f} (paper 2.1), "
        f"large-group geomean={geomean(large):.2f} (paper ~3.0)"
    )


# -- repro.bench registration ------------------------------------------------

from repro import bench
from repro.experiments import SCALES


@bench.register(
    "fig5",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 5 improvement factors over IQS (modeled traffic)."""
    res = fig5.run(scale=SCALES[params["scale"]])
    factors = res.factors("dagP")
    return bench.payload(
        metrics={
            "instances": len(factors),
            "dagp_wins": sum(1 for f in factors if f > 1.0),
            "dagp_geomean": res.geomean("dagP"),
            "dagp_geomean_at_max_ranks": res.geomean_at_max_ranks("dagP"),
        },
    )
