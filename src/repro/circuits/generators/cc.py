"""Counterfeit-coin finding (Iwama et al.).

Quantum query algorithm locating a fake coin among ``n-1`` coins using one
balance ancilla: superpose query strings, apply the balance oracle (CX from
each queried coin into the ancilla), then interfere.  The structure below
follows QASMBench's ``cc_n12``: H layer, oracle CX fan-in, H layer, a second
oracle round conditioned on the balance outcome, and a final H layer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuit import QuantumCircuit

__all__ = ["cc"]


def cc(num_qubits: int, fake: Optional[int] = None, queried: Optional[Sequence[int]] = None) -> QuantumCircuit:
    """Counterfeit-coin circuit on ``num_qubits`` qubits (last = balance).

    Parameters
    ----------
    num_qubits:
        Total width; ``num_qubits - 1`` coin qubits + 1 balance ancilla.
    fake:
        Index of the counterfeit coin (default: middle coin).
    queried:
        Coins included in the weighing oracle (default: all coins).
    """
    if num_qubits < 3:
        raise ValueError("cc needs >= 3 qubits")
    n_coins = num_qubits - 1
    anc = num_qubits - 1
    if fake is None:
        fake = n_coins // 2
    if not 0 <= fake < n_coins:
        raise ValueError("fake coin index out of range")
    if queried is None:
        queried = range(n_coins)
    qc = QuantumCircuit(num_qubits, name=f"cc_n{num_qubits}")
    # Superpose query strings.
    for q in queried:
        qc.h(q)
    # Balance oracle round 1: parity of queried coins into ancilla.
    for q in queried:
        qc.cx(q, anc)
    # Conditional phase kickback from the ancilla.
    qc.h(anc)
    qc.z(anc)
    qc.h(anc)
    # Undo superposition on non-solution branch.
    for q in queried:
        qc.h(q)
    # Second weighing targeting the fake coin (phase oracle).
    qc.x(anc)
    qc.h(anc)
    qc.cx(fake, anc)
    qc.h(anc)
    qc.x(anc)
    # Final interference layer.
    for q in queried:
        qc.h(q)
    return qc
