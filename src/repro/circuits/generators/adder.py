"""Cuccaro quantum ripple-carry adder (quant-ph/0410184).

Computes ``b <- a + b`` in place using MAJ / UMA blocks, one carry-in and
one carry-out qubit: ``num_qubits = 2 * n_bits + 2`` (+1 spare for odd
widths, placed in superposition so it participates in the working set).
This is Table I's ``adder37`` family.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

from ..circuit import QuantumCircuit

__all__ = ["adder"]


def _maj(qc: QuantumCircuit, c: int, b: int, a: int) -> None:
    qc.cx(a, b)
    qc.cx(a, c)
    qc.ccx(c, b, a)


def _uma(qc: QuantumCircuit, c: int, b: int, a: int) -> None:
    qc.ccx(c, b, a)
    qc.cx(a, c)
    qc.cx(c, b)


def adder(
    num_qubits: int,
    a_value: Optional[int] = None,
    b_value: Optional[int] = None,
) -> QuantumCircuit:
    """Ripple-carry adder circuit.

    Qubit layout: ``[cin, a_0, b_0, a_1, b_1, ..., cout, (spare)]`` —
    interleaved so MAJ/UMA blocks act on nearby indices, matching the
    locality structure of the QASMBench netlist.

    Parameters
    ----------
    num_qubits:
        Total width (>= 6).
    a_value, b_value:
        Optional classical inputs loaded with X gates (defaults chosen to
        produce a carry chain that exercises every block).
    """
    if num_qubits < 6:
        raise ValueError("adder needs >= 6 qubits")
    n_bits = (num_qubits - 2) // 2
    spare = num_qubits - (2 * n_bits + 2)  # 0 or 1
    if b_value is None:
        b_value = 1
    # ``a_value`` None is all ones (worst-case carry chain), never built.
    for value in (b_value,) if a_value is None else (a_value, b_value):
        value = operator.index(value)
        if value < 0 or value.bit_length() > n_bits:
            raise ValueError("input values out of range")

    cin = 0
    a = range(1, 2 * n_bits, 2)
    b = range(2, 2 * n_bits + 1, 2)
    cout = 2 * n_bits + 1
    qc = QuantumCircuit(num_qubits, name=f"adder_n{num_qubits}")

    # Load classical inputs.
    for i in range(n_bits):
        if a_value is None or (a_value >> i) & 1:
            qc.x(a[i])
        if (b_value >> i) & 1:
            qc.x(b[i])
    if spare:
        qc.h(num_qubits - 1)

    # Ripple forward.
    _maj(qc, cin, b[0], a[0])
    for i in range(1, n_bits):
        _maj(qc, a[i - 1], b[i], a[i])
    qc.cx(a[n_bits - 1], cout)
    # Ripple back.
    for i in reversed(range(1, n_bits)):
        _uma(qc, a[i - 1], b[i], a[i])
    _uma(qc, cin, b[0], a[0])
    if spare:
        qc.h(num_qubits - 1)
    return qc
