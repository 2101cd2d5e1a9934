"""Bernstein–Vazirani algorithm.

One-query recovery of a secret bit-string ``s``: prepare the last qubit in
``|->``, Hadamard the data register, apply the inner-product oracle (a CX
from every data qubit with ``s_i = 1`` into the ancilla), Hadamard again.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuit import QuantumCircuit

__all__ = ["bv"]


def bv(num_qubits: int, secret: Optional[Sequence[int]] = None) -> QuantumCircuit:
    """Bernstein–Vazirani on ``num_qubits`` qubits (last qubit = ancilla).

    Parameters
    ----------
    num_qubits:
        Total register width; ``num_qubits - 1`` data qubits plus 1 ancilla.
    secret:
        Iterable of 0/1 of length ``num_qubits - 1``.  Defaults to the
        all-ones string (densest oracle — the paper's bv gate counts imply a
        dense secret).
    """
    if num_qubits < 2:
        raise ValueError("bv needs >= 2 qubits")
    n_data = num_qubits - 1
    if secret is not None:  # the default, all ones, is never built
        secret = [int(b) for b in secret]
        if len(secret) != n_data or any(b not in (0, 1) for b in secret):
            raise ValueError("secret must be 0/1 of length num_qubits-1")
    qc = QuantumCircuit(num_qubits, name=f"bv_n{num_qubits}")
    anc = num_qubits - 1
    # Ancilla |-> = HX|0>
    qc.x(anc)
    qc.h(anc)
    for q in range(n_data):
        qc.h(q)
    for q in range(n_data):
        if secret is None or secret[q]:
            qc.cx(q, anc)
    for q in range(n_data):
        qc.h(q)
    qc.h(anc)
    return qc
