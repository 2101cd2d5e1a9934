"""Fig. 9 — Dolan-Moré performance profiles.

Shape asserted vs the paper's reference points: dagP wins the biggest
share of total-runtime instances (paper ~65%) and of communication-time
instances (paper ~75%); IQS never wins at theta=1 (paper: its best result
is 1.2x off the best).
"""

from repro.experiments import fig9

from _harness import run_once


def test_fig9(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: fig9.run(scale))
    save_result(f"fig9_{scale.name}", res.table())

    runtime_best = {
        a: res.best_share(a) for a in ("Nat", "DFS", "dagP", "Intel")
    }
    assert runtime_best["dagP"] == max(runtime_best.values())
    assert runtime_best["dagP"] >= 0.5
    assert runtime_best["Intel"] <= 0.05

    comm_best = {a: res.best_share(a, "comm") for a in ("Nat", "DFS", "dagP")}
    assert comm_best["dagP"] == max(comm_best.values())
    assert comm_best["dagP"] >= 0.5

    print(
        f"best shares: runtime dagP={runtime_best['dagP']:.0%} (paper 65%), "
        f"comm dagP={comm_best['dagP']:.0%} (paper 75%)"
    )


# -- repro.bench registration ------------------------------------------------

from repro import bench
from repro.experiments import SCALES


@bench.register(
    "fig9",
    tags=("paper",),
    params={"scale": "small"},
)
def run_bench(params):
    """Fig. 9 Dolan-Moré performance profiles: best-shares at theta=1."""
    res = fig9.run(scale=SCALES[params["scale"]])
    metrics = {}
    for algorithm in ("Nat", "DFS", "dagP", "Intel"):
        metrics[f"{algorithm}_runtime_best"] = res.best_share(algorithm)
    for algorithm in ("Nat", "DFS", "dagP"):
        metrics[f"{algorithm}_comm_best"] = res.best_share(algorithm, "comm")
    return bench.payload(metrics)
