"""Sec. V-A — single-node OpenMP strong scaling (model).

Paper: "HiSVSIM exhibits a close-to-linear speedup in this strong scaling
case" for thread counts 2..128.  Claimed: monotone speedup, >= 1.6x at 2
threads and >= 5x at 16 threads.
"""

from repro import bench
from repro.experiments import thread_scaling


@bench.register(
    "threads",
    tags=("paper",),
    params={"qubits": 24, "limit": 16},
    smoke={"qubits": 18, "limit": 12},
)
def run_bench(params):
    """Thread-scaling model curve (measured column disabled: the modeled
    speedups are the deterministic, gateable quantities)."""
    res = thread_scaling.run(
        num_qubits=params["qubits"], limit=params["limit"], measure=False
    )
    sp = {r.threads: r.speedup for r in res.rows}
    speeds = [r.speedup for r in res.rows]
    monotone = speeds == sorted(speeds)
    return bench.payload(
        metrics={
            "thread_counts": len(res.rows),
            "speedup_2": sp[2],
            "speedup_16": sp[16],
            "monotone": monotone,
        },
        info={"table": res.table()},
        ok={
            "speedup grows with the thread count": monotone,
            "speedup >= 1.6x at 2 threads": sp[2] >= 1.6,
            "speedup >= 5x at 16 threads": sp[16] >= 5.0,
        },
    )
