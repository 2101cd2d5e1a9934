"""Fig. 9 — Dolan-Moré performance profiles.

Shape claimed vs the paper's reference points: dagP wins the biggest
share of total-runtime instances (paper ~65%) and of communication-time
instances (paper ~75%), at least half of each; IQS (almost) never wins
at theta=1 (paper: its best result is 1.2x off the best).
"""

from repro import bench
from repro.experiments import SCALES, fig9


@bench.register(
    "fig9",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 9 Dolan-Moré performance profiles: best-shares at theta=1."""
    res = fig9.run(scale=SCALES[params["scale"]])
    runtime = {a: res.best_share(a) for a in ("Nat", "DFS", "dagP", "Intel")}
    comm = {a: res.best_share(a, "comm") for a in ("Nat", "DFS", "dagP")}
    metrics = {f"{a}_runtime_best": share for a, share in runtime.items()}
    metrics.update({f"{a}_comm_best": share for a, share in comm.items()})
    return bench.payload(
        metrics,
        info={"table": res.table()},
        ok={
            "dagP wins the largest share of runtime instances": (
                runtime["dagP"] == max(runtime.values())
            ),
            "dagP wins >= 50 % of runtime instances": runtime["dagP"] >= 0.5,
            "IQS wins <= 5 % of runtime instances": runtime["Intel"] <= 0.05,
            "dagP wins the largest share of comm instances": (
                comm["dagP"] == max(comm.values())
            ),
            "dagP wins >= 50 % of comm instances": comm["dagP"] >= 0.5,
        },
    )
