"""Wire cutting: recombination accuracy and cut-cost accounting.

The cutting pipeline's acceptance bar: cut a circuit into fragments no
wider than ``max_width``, evaluate the boundary variants through the
shared-cache batch runner, and the recombined state must match the
uncut flat simulator to ``1e-10`` — with the seeded counts *exactly*
equal to the uncut ``sample_counts`` draws (the dense recombination
path reuses the identical sampler).  The gated metrics are the cost
model the paper-shaped reports quote: cut count, fragment widths, the
``16^k`` logical budget against the physical circuits actually run, and
the cache accounting that proves boundary variants share partitions and
compiled plan structures.

Also runnable without pytest (shared ``repro.bench`` flags)::

    python benchmarks/bench_cut.py --set qubits=16 --set max_width=10
"""

from __future__ import annotations

import numpy as np

from repro import bench
from repro.circuits.generators import build
from repro.cut import cut_run, find_cuts
from repro.sv.simulator import StateVectorSimulator, sample_counts

CIRCUIT = "qnn"
QUBITS = 16
MAX_WIDTH = 10
SHOTS = 256
SEED = 17


def run_cut_comparison(
    circuit=CIRCUIT, qubits=QUBITS, max_width=MAX_WIDTH,
    shots=SHOTS, seed=SEED,
):
    """Cut + recombine vs the uncut flat simulator, one circuit."""
    qc = build(circuit, qubits)
    plan = find_cuts(qc, max_width)
    result = cut_run(qc, plan=plan, want_state=True, shots=shots, seed=seed)
    sim = StateVectorSimulator(qc.num_qubits)
    sim.run(qc)
    max_err = float(np.max(np.abs(result.state - sim.state)))
    expected_counts = sample_counts(sim.state, shots, seed)
    return {
        "circuit": qc.name,
        "qubits": qubits,
        "max_width": max_width,
        "plan": plan,
        "trace": result.trace,
        "max_err": max_err,
        "counts_exact": result.counts == expected_counts,
    }


def render(res) -> str:
    plan, trace = res["plan"], res["trace"]
    return "\n".join(
        [
            f"Wire cutting — {res['circuit']} "
            f"({res['qubits']} qubits, max_width {res['max_width']})",
            f"  {plan.summary()}",
            f"  {trace.summary()}",
            f"  max |cut - uncut| = {res['max_err']:.3e}, seeded counts "
            f"{'exact' if res['counts_exact'] else 'DIVERGED'}",
        ]
    )


# -- pytest entry points -----------------------------------------------------


def test_cut_recombination_accuracy(save_result):
    """Acceptance: recombined state at 1e-10, seeded counts exact."""
    res = run_cut_comparison()
    assert res["max_err"] < 1e-10, (
        f"recombined state diverged from uncut: {res['max_err']:.3e}"
    )
    assert res["counts_exact"], "seeded counts diverged from uncut sampler"
    trace = res["trace"]
    assert trace.partitions_computed == trace.num_fragments
    save_result("bench_cut_recombination", render(res))


# -- repro.bench registration and standalone entry point ---------------------


@bench.register(
    "cut",
    tags=("smoke", "accept"),
    params={"qubits": QUBITS, "max_width": MAX_WIDTH, "shots": SHOTS},
    smoke={"qubits": 12, "max_width": 8, "shots": 128},
)
def run_bench(params):
    """Wire-cut recombination vs the uncut flat simulator.

    State agreement, exact seeded counts and the cut-cost accounting
    (cuts, widths, 16^k budget, cache traffic) are the gated metrics.
    """
    res = run_cut_comparison(
        qubits=params["qubits"],
        max_width=params["max_width"],
        shots=params["shots"],
    )
    plan, trace = res["plan"], res["trace"]
    state_match = res["max_err"] < 1e-10
    return bench.payload(
        metrics={
            "qubits": res["qubits"],
            "max_width": res["max_width"],
            "cuts": plan.num_cuts,
            "fragments": plan.num_fragments,
            "widest_fragment": max(plan.widths),
            "logical_variants": plan.num_variants,
            "variants_evaluated": trace.variants_evaluated,
            "partitions_computed": trace.partitions_computed,
            "structures_compiled": trace.structures_compiled,
            "state_match": state_match,
            "counts_exact": res["counts_exact"],
        },
        info={
            "max_err": res["max_err"],
            "fragment_widths": list(plan.widths),
        },
        ok=state_match and res["counts_exact"],
    )


def main(argv=None) -> int:
    return bench.script_main("cut", argv)


if __name__ == "__main__":
    raise SystemExit(main())
