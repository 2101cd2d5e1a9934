"""Fig. 7 — average per-rank communication time.

Shape claimed: dagP communicates no longer than IQS on every instance,
and IQS trails dagP on the wider circuits.
"""

from repro import bench
from repro.analysis.tables import geomean
from repro.experiments import SCALES
from repro.experiments.common import is_large
from repro.experiments.sweep import run_sweep


@bench.register(
    "fig7",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 7 per-rank communication time: IQS/dagP gap geomeans."""
    sweep = run_sweep(SCALES[params["scale"]])
    gaps = {True: [], False: []}
    never_slower = True
    for c, r in sweep.instances():
        dagp = sweep.get(c, r, "dagP").comm_seconds
        intel = sweep.get(c, r, "Intel").comm_seconds
        never_slower &= dagp <= intel * 1.001
        if intel > 0 and dagp > 0:
            gaps[is_large(c)].append(intel / dagp)
    return bench.payload(
        metrics={
            "instances": len(gaps[False]) + len(gaps[True]),
            "gap_small_geomean": geomean(gaps[False]),
            "gap_large_geomean": geomean(gaps[True]),
        },
        info={"table": sweep.fig7_table()},
        ok={
            "dagP comm <= IQS comm on every instance": never_slower,
            "IQS/dagP comm gap > 1 on the >=35-qubit group": (
                geomean(gaps[True]) > 1.0
            ),
        },
    )
