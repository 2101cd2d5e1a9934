"""Grover search with a V-chain multi-controlled oracle.

The register splits into ``d`` data qubits, ``d-2`` chain ancillas and one
oracle-output qubit held in ``|->`` for phase kickback.  Each iteration is
the standard oracle (multi-controlled X computed through a CCX ladder) plus
the diffusion operator (H/X conjugated multi-controlled Z).  One iteration
at 31 qubits gives ~200 gates — Table I's ``grover`` row.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..circuit import QuantumCircuit

__all__ = ["grover"]


def _mcx_vchain(
    qc: QuantumCircuit,
    controls: Sequence[int],
    target: int,
    ancillas: Sequence[int],
) -> None:
    """Multi-controlled X via a compute/CX/uncompute CCX ladder."""
    k = len(controls)
    if k == 0:
        qc.x(target)
        return
    if k == 1:
        qc.cx(controls[0], target)
        return
    if k == 2:
        qc.ccx(controls[0], controls[1], target)
        return
    if len(ancillas) < k - 2:
        raise ValueError("need k-2 ancillas for the V-chain")
    # Compute partial ANDs.
    qc.ccx(controls[0], controls[1], ancillas[0])
    for i in range(k - 3):
        qc.ccx(controls[i + 2], ancillas[i], ancillas[i + 1])
    qc.ccx(controls[k - 1], ancillas[k - 3], target)
    # Uncompute.
    for i in reversed(range(k - 3)):
        qc.ccx(controls[i + 2], ancillas[i], ancillas[i + 1])
    qc.ccx(controls[0], controls[1], ancillas[0])


def grover(
    num_qubits: int,
    iterations: int = 1,
    marked: Optional[Sequence[int]] = None,
) -> QuantumCircuit:
    """Grover circuit on ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Total width (>= 5).  Data width is ``(num_qubits + 1) // 2``; the
        rest are chain ancillas plus one kickback qubit.  For even widths one
        spare qubit is placed in superposition so every qubit participates.
    iterations:
        Grover iterations (paper scale: 1).
    marked:
        Bit-string (0/1 per data qubit) of the marked item; defaults to all
        ones.
    """
    if num_qubits < 5:
        raise ValueError("grover needs >= 5 qubits")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    d = (num_qubits + 1) // 2
    anc = range(d, d + (d - 2))
    out = d + (d - 2)
    spare = out + 1 if out + 1 < num_qubits else None
    data = range(d)
    flips: List[int] = []  # data qubits the oracle conjugates with X
    if marked is not None:  # the default, all ones, is never built
        marked = [int(b) for b in marked]
        if len(marked) != d or any(b not in (0, 1) for b in marked):
            raise ValueError(f"marked must be 0/1 of length {d}")
        flips = [q for q, b in zip(data, marked) if not b]

    qc = QuantumCircuit(num_qubits, name=f"grover_n{num_qubits}")
    # Uniform superposition + kickback qubit in |->.
    for q in data:
        qc.h(q)
    qc.x(out)
    qc.h(out)
    if spare is not None:
        qc.h(spare)

    for _ in range(iterations):
        # Oracle: flip phase of |marked>.
        for q in flips:
            qc.x(q)
        _mcx_vchain(qc, data, out, anc)
        for q in flips:
            qc.x(q)
        # Diffusion: H X (MCZ) X H on data.
        for q in data:
            qc.h(q)
            qc.x(q)
        # MCZ on data = H on last data qubit conjugating an MCX.
        qc.h(data[-1])
        _mcx_vchain(qc, data[:-1], data[-1], anc)
        qc.h(data[-1])
        for q in data:
            qc.x(q)
            qc.h(q)
    return qc
