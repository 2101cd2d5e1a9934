"""Quantum Approximate Optimization Algorithm (QAOA) for MaxCut.

Standard ansatz on a random 3-regular graph: Hadamard layer, then ``p``
rounds of a ZZ cost layer (CX–RZ–CX per edge) and an RX mixer layer.  With
``p = 8`` and 30 qubits this yields ~1,380 gates — the Table I figure.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from ..circuit import QuantumCircuit

__all__ = ["qaoa", "random_regular_edges"]


def random_regular_edges(n: int, degree: int = 3, seed: int = 7) -> List[Tuple[int, int]]:
    """Edge list of a (near-)``degree``-regular simple graph on ``n`` nodes.

    Uses pairing-model retries; falls back to a circulant construction when
    the pairing repeatedly fails (guaranteed for even ``n*degree``).
    """
    if n <= degree:
        raise ValueError("need n > degree")
    rng = random.Random(seed)
    if (n * degree) % 2 == 0:
        for _ in range(60):
            stubs = [v for v in range(n) for _ in range(degree)]
            rng.shuffle(stubs)
            edges = set()
            ok = True
            for i in range(0, len(stubs), 2):
                a, b = stubs[i], stubs[i + 1]
                if a == b or (min(a, b), max(a, b)) in edges:
                    ok = False
                    break
                edges.add((min(a, b), max(a, b)))
            if ok:
                return sorted(edges)
    # Circulant fallback: connect v to v+1..v+ceil(degree/2) (mod n).
    edges = set()
    for off in range(1, degree // 2 + 1):
        for v in range(n):
            a, b = v, (v + off) % n
            edges.add((min(a, b), max(a, b)))
    if degree % 2 == 1 and n % 2 == 0:
        for v in range(n // 2):
            edges.add((v, v + n // 2))
    return sorted(edges)


def qaoa(
    num_qubits: int,
    p: int = 8,
    edges: Optional[Sequence[Tuple[int, int]]] = None,
    seed: int = 7,
    gammas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
) -> QuantumCircuit:
    """QAOA-MaxCut circuit.

    Parameters
    ----------
    num_qubits:
        Graph size / register width.
    p:
        Number of cost+mixer rounds (paper-scale default 8).
    edges:
        Optional explicit edge list; defaults to a random 3-regular graph.
    gammas, betas:
        Optional per-round angles; deterministic defaults otherwise.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    # Angles and edges are checked and made as the gates go, so a huge
    # ``p`` or width costs no more than the gates a budget admits.
    for angles in (gammas, betas):
        if angles is not None and len(angles) != p:
            raise ValueError("gammas/betas must have length p")
    qc = QuantumCircuit(num_qubits, name=f"qaoa_n{num_qubits}")
    for q in range(num_qubits):
        qc.h(q)
    if edges is None:
        edges = random_regular_edges(num_qubits, 3, seed)
    for a, b in edges:
        if not (0 <= a < num_qubits and 0 <= b < num_qubits and a != b):
            raise ValueError(f"bad edge ({a},{b})")
    for k in range(p):
        gamma = 0.3 + 0.1 * k if gammas is None else gammas[k]
        beta = 0.7 - 0.05 * k if betas is None else betas[k]
        for a, b in edges:
            # exp(-i gamma Z_a Z_b) decomposed CX-RZ-CX.
            qc.cx(a, b)
            qc.rz(2.0 * gamma, b)
            qc.cx(a, b)
        for q in range(num_qubits):
            qc.rx(2.0 * beta, q)
    return qc
