"""Shared experiment infrastructure: scales, suites, partition caches.

Experiments run at a named *scale*:

* ``tiny``  — real amplitudes end-to-end (numerics verified); used by tests.
* ``small`` — dry-run engines, 16-qubit base; the default of every
  ``run`` and of the registered benchmarks (fast, shape-preserving).
* ``paper`` — dry-run engines at the paper's widths (30–37 qubits) and
  rank counts (16–1024).

A scale is a parameter: pass a :class:`Scale` to ``run``, or
``--set scale=tiny|small|paper`` to ``repro bench run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.generators import PAPER_SUITE_SPEC, build
from ..partition import Partition, get_partitioner
from ..runtime.machine import FRONTERA_LIKE, MachineModel
from ..serve.jobs import structural_fingerprint

__all__ = [
    "Scale",
    "SCALES",
    "suite_circuits",
    "ranks_for",
    "partition_cached",
    "STRATEGY_ORDER",
]

STRATEGY_ORDER = ("Nat", "DFS", "dagP")


@dataclass(frozen=True)
class Scale:
    """One experiment scale.

    ``base_qubits`` sets the width of the paper's 30-qubit circuits; the
    31/35/36/37-qubit entries keep their offsets.  ``ranks_small`` applies
    to the <35-qubit group, ``ranks_large`` to the rest (paper: 16–256 vs
    512/1024).  ``dry_run`` switches engines to the amplitude-free path.
    """

    name: str
    base_qubits: int
    ranks_small: Tuple[int, ...]
    ranks_large: Tuple[int, ...]
    dry_run: bool
    machine: MachineModel = FRONTERA_LIKE


SCALES: Dict[str, Scale] = {
    "tiny": Scale("tiny", 10, (2, 4), (4, 8), False),
    "small": Scale("small", 16, (4, 8, 16), (16, 32), True),
    "paper": Scale("paper", 30, (16, 32, 64, 128, 256), (512, 1024), True),
}


@lru_cache(maxsize=None)
def suite_circuits(base_qubits: int) -> Dict[str, QuantumCircuit]:
    """The 13-entry Table I suite at the given base width (cached)."""
    out: Dict[str, QuantumCircuit] = {}
    for spec in PAPER_SUITE_SPEC:
        qc = build(spec["gen"], base_qubits + spec["offset"])
        qc.name = spec["key"]
        out[spec["key"]] = qc
    return out


def is_large(key: str) -> bool:
    """True for the paper's >=35-qubit group (bv35/ising35/cc36/adder37)."""
    return any(ch.isdigit() for ch in key)


def ranks_for(key: str, scale: Scale) -> Tuple[int, ...]:
    return scale.ranks_large if is_large(key) else scale.ranks_small


_PARTITION_CACHE: Dict[Tuple[str, str, int], Partition] = {}


def partition_cached(circuit: QuantumCircuit, strategy: str, limit: int) -> Partition:
    """Partition with memoisation across experiments in one process.

    Keyed on the circuit's structure (gate names, operands, order), which
    is all a partitioner reads.
    """
    key = (structural_fingerprint(circuit), strategy, limit)
    part = _PARTITION_CACHE.get(key)
    if part is None:
        part = get_partitioner(strategy).partition(circuit, limit)
        _PARTITION_CACHE[key] = part
    return part
