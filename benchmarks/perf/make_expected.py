"""Compute the golden references in ``expected.json`` (run once, by hand).

For the default seed, every operation whose final state the harness can
see is simulated with the independent flat ``StateVectorSimulator`` and
64 seed-chosen amplitudes plus the norm are stored.  Slow (a minute or
two: the wide states are swept once per source gate) and not part of a
benchmark run; rerun it only when a workload's inputs change.

    python benchmarks/perf/make_expected.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

import spec  # noqa: E402
from workloads import flat_state, make_workload, probe_indices  # noqa: E402


def golden(seed: int) -> dict:
    doc = {"seed": seed, "workloads": {}}
    for name in spec.WORKLOADS:
        workload = make_workload(name, seed)
        entries = {}
        for op_id, circuit in workload.golden_ops():
            state = flat_state(circuit)
            indices = probe_indices(op_id, seed, state.size)
            amps = state[indices]
            entries[op_id] = {
                "indices": indices,
                "re": [float(x) for x in amps.real],
                "im": [float(x) for x in amps.imag],
                "norm": float(np.linalg.norm(state)),
            }
            print(f"{name} {op_id}: {circuit.num_qubits} qubits, "
                  f"{len(circuit)} gates", file=sys.stderr)
        doc["workloads"][name] = entries
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--out", default=str(HERE / "expected.json"))
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(golden(args.seed), fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
