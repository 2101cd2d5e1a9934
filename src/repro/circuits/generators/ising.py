"""Trotterised 1-D transverse-field Ising model evolution.

Each Trotter step applies ``exp(-i J dt Z_i Z_{i+1})`` on every
nearest-neighbour pair (decomposed CX–RZ–CX) followed by the transverse
field ``exp(-i h dt X_i)`` on every site.  Three steps on 30 qubits yields
~350 gates, matching Table I's ``ising`` row.
"""

from __future__ import annotations

from ..circuit import QuantumCircuit

__all__ = ["ising"]


def ising(
    num_qubits: int,
    steps: int = 3,
    j_coupling: float = 1.0,
    h_field: float = 2.0,
    dt: float = 0.1,
    periodic: bool = False,
) -> QuantumCircuit:
    """Ising-model Trotter circuit.

    Parameters
    ----------
    num_qubits:
        Chain length.
    steps:
        Trotter steps (paper scale: 3).
    j_coupling, h_field, dt:
        Hamiltonian parameters; only affect rotation angles.
    periodic:
        Close the chain into a ring when True.
    """
    if num_qubits < 2:
        raise ValueError("ising needs >= 2 qubits")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    qc = QuantumCircuit(num_qubits, name=f"ising_n{num_qubits}")
    # Initial superposition (quench from |+...+>).
    for q in range(num_qubits):
        qc.h(q)
    pairs = [(i, i + 1) for i in range(num_qubits - 1)]
    if periodic and num_qubits > 2:
        pairs.append((num_qubits - 1, 0))
    for _ in range(steps):
        for a, b in pairs:
            qc.cx(a, b)
            qc.rz(2.0 * j_coupling * dt, b)
            qc.cx(a, b)
        for q in range(num_qubits):
            qc.rx(2.0 * h_field * dt, q)
    return qc
