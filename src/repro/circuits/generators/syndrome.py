"""Repetition-code syndrome extraction (error-correction style workload).

A distance-``d`` bit-flip repetition code interleaves ``d`` data qubits
with ``d - 1`` ancilla qubits (``2d - 1`` total).  The circuit prepares
the logical ``|+>`` (Hadamard + CNOT chain across the data qubits), then
runs ``rounds`` of parity extraction: every ancilla collects the parity
of its two neighbouring data qubits via CNOTs and is mirrored back so
repeated rounds stay unitary (no measurement in the gate model).

The circuit is Clifford-only, so it routes entirely through the
stabilizer tableau engine — the paper-adjacent "error-correction
circuits at widths dense simulation cannot touch" scenario.
"""

from __future__ import annotations

from ..circuit import QuantumCircuit

__all__ = ["syndrome"]


def syndrome(num_qubits: int, rounds: int = 2) -> QuantumCircuit:
    """Build a repetition-code syndrome-extraction circuit.

    Parameters
    ----------
    num_qubits:
        Register width (>= 3).  Data qubits sit at even indices, ancilla
        qubits at odd indices; an even width leaves the last qubit as an
        extra data qubit on the chain's end.
    rounds:
        Syndrome-extraction rounds (>= 1).
    """
    if num_qubits < 3:
        raise ValueError("syndrome needs >= 3 qubits")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    qc = QuantumCircuit(
        num_qubits, name=f"syndrome_n{num_qubits}_r{rounds}"
    )
    data = range(0, num_qubits, 2)
    ancilla = range(1, num_qubits, 2)
    # Logical |+> across the data chain.
    qc.h(data[0])
    for a, b in zip(data, data[1:]):
        qc.cx(a, b)
    for _ in range(rounds):
        for anc in ancilla:
            left, right = anc - 1, anc + 1
            qc.cx(left, anc)
            if right < num_qubits:
                qc.cx(right, anc)
        # Mirror the parity collection so the next round starts from
        # clean ancillas (unitary stand-in for measure-and-reset).
        for anc in reversed(ancilla):
            left, right = anc - 1, anc + 1
            if right < num_qubits:
                qc.cx(right, anc)
            qc.cx(left, anc)
    return qc
