"""Hypothesis strategies for circuit-level property tests.

Two generators:

- :func:`circuits` — unconstrained random circuits over a mixed 1q/2q
  gate vocabulary (or a caller's ``pool``), for properties that must
  hold on *any* circuit.
- :func:`chained_circuits` — circuits built from ``k + 1`` windows where
  consecutive windows overlap in **exactly one qubit**, together with the
  gate -> window assignment.  Cutting along the window boundaries severs
  exactly ``k`` wires, so tests get precise control over the cut count
  (the 16^k recombination budget) while hypothesis still explores gate
  content, angles and window sizes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_DEFS, make_gate

#: Gate pools the strategies draw from (parameterised + Clifford mix).
ONE_QUBIT_GATES = ("h", "x", "s", "t", "rx", "rz", "u3")
TWO_QUBIT_GATES = ("cx", "cz", "crz", "rzz")
THREE_QUBIT_GATES = ("ccx", "ccz", "cswap")

_ANGLES = st.floats(
    min_value=0.0,
    max_value=2 * math.pi,
    allow_nan=False,
    allow_infinity=False,
)


def _draw_gate(draw, name: str, qubits: Tuple[int, ...]):
    params = tuple(
        draw(_ANGLES) for _ in range(GATE_DEFS[name].num_params)
    )
    return make_gate(name, qubits, params)


@st.composite
def circuits(
    draw,
    min_qubits: int = 2,
    max_qubits: int = 6,
    min_gates: int = 3,
    max_gates: int = 24,
    three_qubit: bool = False,
    pool: Optional[Sequence[str]] = None,
) -> QuantumCircuit:
    """A random circuit over :data:`ONE_QUBIT_GATES` / :data:`TWO_QUBIT_GATES`
    (and, with ``three_qubit``, :data:`THREE_QUBIT_GATES`) — or over the
    gate names in ``pool``, split by arity (``three_qubit`` still gates
    its 3-qubit names)."""
    by_arity = (ONE_QUBIT_GATES, TWO_QUBIT_GATES, THREE_QUBIT_GATES)
    if pool is not None:
        by_arity = tuple(
            tuple(g for g in pool if GATE_DEFS[g].num_qubits == k)
            for k in (1, 2, 3)
        )
    n = draw(st.integers(min_qubits, max_qubits))
    num_gates = draw(st.integers(min_gates, max_gates))
    qc = QuantumCircuit(n, name="hyp_random")
    for _ in range(num_gates):
        if three_qubit and n >= 3 and draw(st.integers(0, 4)) == 0:
            name = draw(st.sampled_from(by_arity[2]))
            qubits: Tuple[int, ...] = tuple(
                draw(st.permutations(range(n)))[:3]
            )
        elif n >= 2 and draw(st.booleans()):
            name = draw(st.sampled_from(by_arity[1]))
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            qubits = (a, b)
        else:
            name = draw(st.sampled_from(by_arity[0]))
            qubits = (draw(st.integers(0, n - 1)),)
        qc.append(_draw_gate(draw, name, qubits))
    return qc


@st.composite
def chained_circuits(
    draw,
    min_cuts: int = 1,
    max_cuts: int = 3,
    window: int = 4,
    min_window_gates: int = 3,
    max_window_gates: int = 8,
) -> Tuple[QuantumCircuit, List[int], int]:
    """``(circuit, assignment, k)``: cutting the windows costs exactly ``k``.

    The circuit has ``k + 1`` windows of ``window`` qubits; window ``i``
    covers qubits ``[i*(window-1), i*(window-1) + window - 1]``, so each
    consecutive pair shares exactly one qubit and non-adjacent windows
    share none.  Every window starts with a ``cx`` off its incoming
    shared qubit and ends with a ``cx`` onto its outgoing shared qubit,
    so each shared timeline really crosses the boundary — the plan built
    from ``assignment`` has exactly ``k`` cuts, one per boundary.
    """
    k = draw(st.integers(min_cuts, max_cuts))
    w = window
    n = (k + 1) * (w - 1) + 1
    qc = QuantumCircuit(n, name=f"chained_k{k}")
    assignment: List[int] = []
    for i in range(k + 1):
        lo = i * (w - 1)
        hi = lo + w - 1
        window_gates = [make_gate("cx", (lo, lo + 1), ())]
        for _ in range(draw(st.integers(min_window_gates, max_window_gates))):
            if draw(st.booleans()):
                name = draw(st.sampled_from(TWO_QUBIT_GATES))
                a = lo + draw(st.integers(0, w - 1))
                b = lo + draw(st.integers(0, w - 2))
                if b >= a:
                    b += 1
                qubits: Tuple[int, ...] = (a, b)
            else:
                name = draw(st.sampled_from(ONE_QUBIT_GATES))
                qubits = (lo + draw(st.integers(0, w - 1)),)
            window_gates.append(_draw_gate(draw, name, qubits))
        window_gates.append(make_gate("cx", (hi - 1, hi), ()))
        for gate in window_gates:
            qc.append(gate)
            assignment.append(i)
    return qc, assignment, k
