"""Ablations of the design choices the paper argues for qualitatively.

Not paper tables; they quantify how much each dagP phase, the DFS trial
count and each IQS fast path contributes (merge phase reduces parts;
refinement does not hurt; more random orders never hurt; IQS without
the control fast path would be a strawman).
"""

from repro import bench
from repro.circuits.generators import build
from repro.dist import IQSEngine
from repro.partition import DagPPartitioner, DFSPartitioner

DFS_TRIALS = (1, 2, 4, 8, 16)


@bench.register(
    "ablation",
    tags=("paper", "ablation"),
    params={"qubits": 16, "iqs_qubits": 16, "iqs_ranks": 8},
    smoke={"qubits": 12, "iqs_qubits": 12, "iqs_ranks": 4},
)
def run_bench(params):
    """Ablations: dagP merge and refinement, DFS trials, IQS fast paths."""
    metrics = {}
    q = params["qubits"]

    # Merge phase on the recursive-bisection path (GGG disabled so the
    # merge effect is visible in isolation).
    merge = []
    for name, n, limit in [
        ("qpe", q - 3, q - 8), ("grover", q - 3, q - 8), ("adder", q, q - 8),
        ("qnn", q, q - 8), ("qft", q - 2, q - 9),
    ]:
        qc = build(name, n)
        without, merged = (
            DagPPartitioner(do_merge=do_merge, use_ggg=False)
            .partition(qc, limit)
            .num_parts
            for do_merge in (False, True)
        )
        metrics[f"{name}_parts_no_merge"] = without
        metrics[f"{name}_parts_merge"] = merged
        merge.append((without, merged))

    refine = []
    for name, n in [("qaoa", q), ("qft", q - 2), ("ising", q)]:
        qc = build(name, n)
        unrefined = DagPPartitioner(refine_passes=0).partition(qc, n - 4)
        refined = DagPPartitioner().partition(qc, n - 4)
        metrics[f"{name}_parts_no_refine"] = unrefined.num_parts
        metrics[f"{name}_parts_refined"] = refined.num_parts
        refine.append((unrefined.num_parts, refined.num_parts))

    qc = build("qaoa", q)
    dfs = [
        DFSPartitioner(trials=t, seed=1).partition(qc, q - 4).num_parts
        for t in DFS_TRIALS
    ]
    for t, parts in zip(DFS_TRIALS, dfs):
        metrics[f"dfs_parts_trials{t}"] = parts

    qc = build("qft", params["iqs_qubits"])
    iqs_bytes = []
    for control, diagonal in ((False, False), (True, False), (True, True)):
        eng = IQSEngine(
            params["iqs_ranks"],
            dry_run=True,
            control_fastpath=control,
            diagonal_fastpath=diagonal,
        )
        _, rep = eng.run(qc)
        key = f"iqs_bytes_ctrl{int(control)}_diag{int(diagonal)}"
        metrics[key] = rep.comm.total_bytes
        iqs_bytes.append(rep.comm.total_bytes)

    return bench.payload(
        metrics,
        ok={
            "the merge phase never adds parts": all(
                m <= w for w, m in merge
            ),
            "the merge phase removes a part somewhere": any(
                m < w for w, m in merge
            ),
            "FM refinement costs at most one part": all(
                r <= u + 1 for u, r in refine
            ),
            "more DFS trials never need more parts": dfs == sorted(
                dfs, reverse=True
            ),
            "each IQS fast path cuts bytes": iqs_bytes == sorted(
                iqs_bytes, reverse=True
            ),
        },
    )
