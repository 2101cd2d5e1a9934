"""Ablation benches for the design choices DESIGN.md calls out.

Not paper tables; they quantify how much each dagP phase and each IQS
fast path contributes, which substantiates the paper's qualitative
arguments (merge phase reduces parts; refinement helps; IQS without the
control fast path would be a strawman).
"""

from repro.analysis.tables import render_table
from repro.circuits.generators import build
from repro.dist import IQSEngine
from repro.partition import DagPPartitioner, DFSPartitioner

from _harness import run_once


def test_dagp_merge_phase_ablation(benchmark, save_result):
    """Merge phase on the recursive-bisection path (GGG disabled so the
    merge effect is visible in isolation)."""

    def run():
        rows = []
        for name, n, limit in [
            ("qpe", 13, 8),
            ("grover", 13, 8),
            ("adder", 16, 8),
            ("qnn", 16, 8),
            ("qft", 14, 7),
        ]:
            qc = build(name, n)
            with_merge = DagPPartitioner(do_merge=True, use_ggg=False).partition(
                qc, limit
            )
            without = DagPPartitioner(do_merge=False, use_ggg=False).partition(
                qc, limit
            )
            rows.append((name, without.num_parts, with_merge.num_parts))
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_dagp_merge",
        render_table(
            ["circuit", "parts (no merge)", "parts (merge)"],
            rows,
            title="Ablation: dagP final merge phase (RB path)",
        ),
    )
    assert all(m <= w for _, w, m in rows)
    assert any(m < w for _, w, m in rows)


def test_dagp_refinement_ablation(benchmark, save_result):
    """Refinement passes: 0 vs default, part count comparison."""

    def run():
        rows = []
        for name, n in [("qaoa", 16), ("qft", 14), ("ising", 16)]:
            qc = build(name, n)
            limit = n - 4
            no_refine = DagPPartitioner(refine_passes=0).partition(qc, limit)
            refined = DagPPartitioner().partition(qc, limit)
            rows.append((name, no_refine.num_parts, refined.num_parts))
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_dagp_refine",
        render_table(
            ["circuit", "parts (no refine)", "parts (refined)"],
            rows,
            title="Ablation: dagP FM refinement",
        ),
    )
    assert all(r <= nr + 1 for _, nr, r in rows)


def test_dfs_trials_ablation(benchmark, save_result):
    """DFS trial count: more random orders never hurt."""

    def run():
        qc = build("qaoa", 16)
        return [
            (t, DFSPartitioner(trials=t, seed=1).partition(qc, 12).num_parts)
            for t in (1, 2, 4, 8, 16)
        ]

    rows = run_once(benchmark, run)
    save_result(
        "ablation_dfs_trials",
        render_table(["trials", "parts"], rows, title="Ablation: DFS trials"),
    )
    parts = [p for _, p in rows]
    assert all(parts[i + 1] <= parts[i] for i in range(len(parts) - 1))


def test_iqs_fastpath_ablation(benchmark, save_result):
    """IQS fast paths: communication volume under each toggle setting."""

    def run():
        qc = build("qft", 16)
        rows = []
        for control, diagonal in ((False, False), (True, False), (True, True)):
            eng = IQSEngine(
                8,
                dry_run=True,
                control_fastpath=control,
                diagonal_fastpath=diagonal,
            )
            _, rep = eng.run(qc)
            rows.append((control, diagonal, rep.comm.total_bytes))
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_iqs_fastpaths",
        render_table(
            ["control fastpath", "diagonal fastpath", "comm bytes"],
            rows,
            title="Ablation: IQS communication fast paths (qft-16, 8 ranks)",
        ),
    )
    bytes_ = [b for _, _, b in rows]
    assert bytes_[0] >= bytes_[1] >= bytes_[2]


# -- repro.bench registration ------------------------------------------------

from repro import bench


@bench.register(
    "ablation",
    tags=("paper", "ablation"),
    params={"qubits": 16, "iqs_qubits": 16, "iqs_ranks": 8},
    smoke={"qubits": 12, "iqs_qubits": 12, "iqs_ranks": 4},
)
def run_bench(params):
    """dagP merge-phase and IQS fast-path ablations (part counts, bytes)."""
    metrics = {}
    scale_q = params["qubits"]
    for name, n, limit in [
        ("qpe", scale_q - 3, scale_q - 8),
        ("adder", scale_q, scale_q - 8),
        ("qft", scale_q - 2, scale_q - 9),
    ]:
        qc = build(name, n)
        with_merge = DagPPartitioner(do_merge=True, use_ggg=False).partition(
            qc, limit
        )
        without = DagPPartitioner(do_merge=False, use_ggg=False).partition(
            qc, limit
        )
        metrics[f"{name}_parts_no_merge"] = without.num_parts
        metrics[f"{name}_parts_merge"] = with_merge.num_parts
    qc = build("qft", params["iqs_qubits"])
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
    return bench.payload(metrics)
