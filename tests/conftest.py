"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
from typing import List, Optional

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_DEFS, make_gate
from repro.sv.layout import permute_bits


# Families usable at a given small width, for parametrised suite tests.
SUITE_SMALL = [
    ("cat_state", 8),
    ("bv", 8),
    ("qaoa", 8),
    ("cc", 8),
    ("ising", 8),
    ("qft", 7),
    ("qnn", 8),
    ("grover", 9),
    ("qpe", 7),
    ("adder", 8),
]


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    max_arity: int = 3,
    gate_pool: Optional[List[str]] = None,
) -> QuantumCircuit:
    """Deterministic random circuit over the full gate vocabulary."""
    rng = random.Random(seed)
    if gate_pool is None:
        gate_pool = [
            name
            for name, d in GATE_DEFS.items()
            if d.num_qubits <= min(max_arity, num_qubits)
        ]
    qc = QuantumCircuit(num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        name = rng.choice(gate_pool)
        d = GATE_DEFS[name]
        qubits = rng.sample(range(num_qubits), d.num_qubits)
        params = tuple(rng.uniform(0, 2 * math.pi) for _ in range(d.num_params))
        qc.append(make_gate(name, qubits, params))
    return qc


def scatter_reference(shards: np.ndarray, sigma):
    """Elementwise oracle for the bit-permutation exchange ``sigma``.

    The definition every production path (transposed view in process,
    slabs over sockets, closed-form traffic) is held to: each element of
    the ``(R, local)`` shard matrix is scattered to ``permute_bits`` of
    its packed index, and traffic is counted per (src, dst) pair.
    Returns ``(new_shards, step, per_rank)``: the step is ``(total_bytes,
    total_msgs, max_bytes_per_rank, max_msgs_per_rank)`` and
    ``per_rank[r]`` is ``(sent_bytes, sent_msgs, recv_bytes, recv_msgs)``,
    rank-to-self traffic excluded from both.
    """
    R, local = shards.shape
    packed = np.arange(shards.size, dtype=np.int64)
    dest = permute_bits(packed, sigma)
    new = np.empty(shards.size, dtype=shards.dtype)
    new[dest] = shards.reshape(-1)
    pairs = (packed // local) * R + dest // local
    counts = np.bincount(pairs, minlength=R * R).reshape(R, R)
    np.fill_diagonal(counts, 0)
    nbytes = counts * shards.dtype.itemsize
    out_b, in_b = nbytes.sum(axis=1), nbytes.sum(axis=0)
    out_m, in_m = (counts > 0).sum(axis=1), (counts > 0).sum(axis=0)
    step = (
        int(nbytes.sum()),
        int((counts > 0).sum()),
        int(np.maximum(out_b, in_b).max()),
        int(np.maximum(out_m, in_m).max()),
    )
    per_rank = [
        (int(out_b[r]), int(out_m[r]), int(in_b[r]), int(in_m[r]))
        for r in range(R)
    ]
    return new.reshape(R, local), step, per_rank


def full_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a circuit via kron expansion.

    Independent of the simulator kernels (used to validate them): builds
    each gate's full-space matrix by explicit basis-state index mapping.
    """
    n = circuit.num_qubits
    dim = 1 << n
    total = np.eye(dim, dtype=np.complex128)
    for gate in circuit:
        m = gate.matrix()
        qs = gate.qubits
        k = len(qs)
        big = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            j = 0
            for i, q in enumerate(qs):
                j |= ((col >> q) & 1) << i
            rest = col
            for q in qs:
                rest &= ~(1 << q)
            for jp in range(1 << k):
                row = rest
                for i, q in enumerate(qs):
                    row |= ((jp >> i) & 1) << q
                big[row, col] = m[jp, j]
        total = big @ total
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
