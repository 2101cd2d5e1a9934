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
"""

from __future__ import annotations

import numpy as np

from repro import bench
from repro.circuits.generators import build
from repro.cut import cut_run, find_cuts
from repro.sv.simulator import StateVectorSimulator, sample_counts

CIRCUIT = "qnn"
SEED = 17


@bench.register(
    "cut",
    tags=("smoke", "accept"),
    params={"qubits": 16, "max_width": 10, "shots": 256},
    smoke={"qubits": 12, "max_width": 8, "shots": 128},
)
def run_bench(params):
    """Wire-cut recombination vs the uncut flat simulator.

    State agreement, exact seeded counts and the cut-cost accounting
    (cuts, widths, 16^k budget, cache traffic) are the gated metrics.
    """
    qubits, max_width, shots = (
        params["qubits"], params["max_width"], params["shots"]
    )
    qc = build(CIRCUIT, qubits)
    plan = find_cuts(qc, max_width)
    result = cut_run(qc, plan=plan, want_state=True, shots=shots, seed=SEED)
    stats = result.stats
    sim = StateVectorSimulator(qc.num_qubits)
    sim.run(qc)
    max_err = float(np.max(np.abs(result.state - sim.state)))
    state_match = max_err < 1e-10
    counts_exact = result.counts == sample_counts(sim.state, shots, SEED)
    return bench.payload(
        metrics={
            "qubits": qubits,
            "max_width": max_width,
            "cuts": plan.num_cuts,
            "fragments": plan.num_fragments,
            "widest_fragment": max(plan.widths),
            "logical_variants": plan.num_variants,
            "variants_evaluated": stats.num_jobs,
            "partitions_computed": stats.partitions_computed,
            "structures_compiled": stats.structures_compiled,
            "state_match": state_match,
            "counts_exact": counts_exact,
        },
        info={"max_err": max_err, "fragment_widths": list(plan.widths)},
        ok={
            "recombined state matches the uncut one to 1e-10": state_match,
            "seeded counts equal the uncut sampler's": counts_exact,
            "each fragment partitions once across its variants": (
                stats.partitions_computed == plan.num_fragments
            ),
        },
    )
