"""Sec. V-A — dagP heuristic quality vs the ILP optimum.

Paper: optimal on 48 of 52 (circuit, limit) instances, off by at most 2
parts otherwise; ILP needs minutes while dagP needs microseconds.  Shape
asserted: >= 75% optimal, max gap <= 2, and the dagP-vs-ILP runtime gap
exceeds 10x.
"""

import time

from repro.circuits.generators import build
from repro.experiments import ilp_quality
from repro.partition import DagPPartitioner, ILPPartitioner

from _harness import run_once


def test_ilp_quality(benchmark, scale, save_result):
    res = run_once(benchmark, lambda: ilp_quality.run(base_qubits=8))
    save_result(f"ilp_quality_{scale.name}", res.table())

    assert res.num_instances >= 20
    assert res.num_optimal / res.num_instances >= 0.75
    assert res.max_gap <= 2
    print(
        f"dagP optimal on {res.num_optimal}/{res.num_instances} "
        f"(paper 48/52), max gap {res.max_gap} (paper <= 2)"
    )


def test_ilp_much_slower_than_dagp(benchmark, save_result):
    qc = build("ising", 8, steps=1)
    t0 = time.perf_counter()
    run_once(benchmark, lambda: DagPPartitioner().partition(qc, 5))
    t_dagp = time.perf_counter() - t0
    t0 = time.perf_counter()
    ILPPartitioner(time_limit=60).partition(qc, 5)
    t_ilp = time.perf_counter() - t0
    save_result(
        "ilp_runtime_gap",
        f"dagP {t_dagp * 1e3:.1f} ms vs ILP {t_ilp * 1e3:.1f} ms "
        f"({t_ilp / max(t_dagp, 1e-9):.0f}x)\n",
    )
    assert t_ilp > 10 * t_dagp


# -- repro.bench registration ------------------------------------------------

from repro import bench


@bench.register(
    "ilp",
    tags=("paper",),
    params={"base_qubits": 8, "time_limit": 20.0},
    smoke={"base_qubits": 6, "time_limit": 5.0},
)
def run_bench(params):
    """dagP heuristic quality vs the ILP optimum at small widths."""
    res = ilp_quality.run(
        base_qubits=params["base_qubits"], time_limit=params["time_limit"]
    )
    return bench.payload(
        metrics={
            "instances": res.num_instances,
            "optimal": res.num_optimal,
            "max_gap": res.max_gap,
        },
    )
