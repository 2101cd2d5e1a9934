#!/usr/bin/env python
"""Domain example: QAOA MaxCut energy evaluation under partitioned simulation.

The workload the paper's intro motivates — variational algorithm design
needs many circuit evaluations, so simulation throughput matters.  This
example evaluates the MaxCut objective of a QAOA ansatz over a small angle
grid, using the hierarchical executor, and reports how partitioning quality
(parts per strategy) would translate into distributed cost.

Run:  python examples/qaoa_maxcut.py
"""

import numpy as np

from repro.circuits.generators import qaoa
from repro.circuits.generators.qaoa import random_regular_edges
from repro.dist import HiSVSimEngine
from repro.partition import get_partitioner
from repro.sv import HierarchicalExecutor, StateVectorSimulator, zero_state


def maxcut_energy(state: np.ndarray, edges, n: int) -> float:
    """<C> = sum_edges 0.5 * (1 - <Z_a Z_b>)."""
    probs = np.abs(state) ** 2
    idx = np.arange(state.size, dtype=np.int64)
    energy = 0.0
    for a, b in edges:
        za = 1.0 - 2.0 * ((idx >> a) & 1)
        zb = 1.0 - 2.0 * ((idx >> b) & 1)
        energy += 0.5 * float(np.sum(probs * (1.0 - za * zb)))
    return energy


def main() -> None:
    n, p = 12, 2
    edges = random_regular_edges(n, 3, seed=3)
    print(f"QAOA MaxCut: {n} qubits, 3-regular graph with {len(edges)} edges, p={p}")

    # --- angle scan with the hierarchical executor -------------------------
    partitioner = get_partitioner("dagP")
    best = (-1.0, None)
    for gamma in (0.2, 0.4, 0.6):
        for beta in (0.2, 0.4):
            qc = qaoa(n, p=p, edges=edges, gammas=[gamma] * p, betas=[beta] * p)
            partition = partitioner.partition(qc, limit=8)
            state = zero_state(n)
            HierarchicalExecutor().run(qc, partition, state)
            e = maxcut_energy(state, edges, n)
            marker = ""
            if e > best[0]:
                best = (e, (gamma, beta))
                marker = "  <- best"
            print(
                f"  gamma={gamma:.1f} beta={beta:.1f}: <C>={e:7.3f} "
                f"({partition.num_parts} parts){marker}"
            )
    print(f"best angles: gamma={best[1][0]}, beta={best[1][1]}, <C>={best[0]:.3f}")

    # --- cross-check one evaluation against the flat simulator -------------
    gamma, beta = best[1]
    qc = qaoa(n, p=p, edges=edges, gammas=[gamma] * p, betas=[beta] * p)
    flat = StateVectorSimulator(n)
    flat.run(qc)
    assert np.isclose(maxcut_energy(flat.state, edges, n), best[0], atol=1e-9)

    # --- what would this cost distributed? ---------------------------------
    print("\ndistributed cost of the best evaluation (8 virtual ranks):")
    for strategy in ("Nat", "DFS", "dagP"):
        part = get_partitioner(strategy).partition(qc, n - 3)
        # The paper's gate-for-gate cost model (fuse=False).
        _, rep = HiSVSimEngine(8, dry_run=True, fuse=False).run(qc, part)
        print(
            f"  {strategy:5s}: {part.num_parts:2d} parts, "
            f"simulated {rep.total_seconds * 1e3:7.3f} ms "
            f"(comm {rep.comm_seconds * 1e3:6.3f} ms, "
            f"{rep.comm.total_bytes:,} bytes)"
        )


if __name__ == "__main__":
    main()
