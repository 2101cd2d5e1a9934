"""Seeded random Clifford circuits.

Every gate is drawn from the Clifford subset of the gate table
(``GateDef.clifford``), so the whole circuit is exactly simulable by the
stabilizer tableau engine (:mod:`repro.sv.stabilizer`) — the workload
the per-part engine routing's differential tests and benches need:
structurally irregular, seed-reproducible, and Clifford by construction.
"""

from __future__ import annotations

import random
from typing import Optional

from ..circuit import QuantumCircuit

__all__ = ["stabilizer_random"]

_ONE_QUBIT = ("h", "s", "sdg", "sx", "x", "y", "z")
_TWO_QUBIT = ("cx", "cy", "cz", "swap", "iswap")


def stabilizer_random(
    num_qubits: int,
    depth: Optional[int] = None,
    seed: int = 1234,
) -> QuantumCircuit:
    """Build a random Clifford circuit of ``depth`` layers.

    Each layer shuffles the qubits, applies a two-qubit Clifford to
    consecutive pairs and a one-qubit Clifford to the leftovers, so
    entanglement spreads quickly while the gate stream stays entirely
    within the tableau engine's gate set.  Identical ``(num_qubits,
    depth, seed)`` always yields an identical circuit.

    Parameters
    ----------
    num_qubits:
        Register width (>= 2).
    depth:
        Number of layers (default ``2 * num_qubits``).
    seed:
        PRNG seed; the circuit is a pure function of it.
    """
    if num_qubits < 2:
        raise ValueError("stabilizer_random needs >= 2 qubits")
    if depth is None:
        depth = 2 * num_qubits
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = random.Random(seed)
    qc = QuantumCircuit(
        num_qubits, name=f"stabilizer_random_n{num_qubits}_d{depth}"
    )
    # Each layer pairs the first 2k shuffled qubits, 1q gates on the
    # rest: refuse an over-budget circuit before shuffling the qubits.
    pairs = num_qubits // 2 if num_qubits > 2 else 1
    qc.reserve(depth * (num_qubits - pairs + 1))
    qubits = list(range(num_qubits))
    for _ in range(depth):
        rng.shuffle(qubits)
        for k in range(pairs):
            a, b = qubits[2 * k], qubits[2 * k + 1]
            qc.add(rng.choice(_TWO_QUBIT), a, b)
        for q in qubits[2 * pairs:]:
            qc.add(rng.choice(_ONE_QUBIT), q)
        # One extra 1q gate per layer keeps single-qubit phases exercised
        # even at even widths where every qubit landed in a pair.
        qc.add(rng.choice(_ONE_QUBIT), rng.randrange(num_qubits))
    return qc
