"""Circuit transformations: inversion and qubit remapping.

The two round-trip helpers the property tests are built on: a circuit
followed by :func:`inverse_circuit` of itself returns ``|0...0>``, and
:func:`remap_circuit` commutes with simulation up to the same relabelling
of the state's bits.  (Gate fusion lives in :mod:`repro.sv.fusion`.)
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from .circuit import QuantumCircuit
from .gates import make_gate

__all__ = ["inverse_circuit", "remap_circuit"]

_INVERSE_NAME = {
    "id": "id",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "cx": "cx",
    "cy": "cy",
    "cz": "cz",
    "ch": "ch",
    "swap": "swap",
    "ccx": "ccx",
    "ccz": "ccz",
    "cswap": "cswap",
}
_NEGATE_PARAM = {"rx", "ry", "rz", "u1", "cu1", "crx", "cry", "crz", "rzz"}


def inverse_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """The exact inverse: reversed gate order, each gate inverted."""
    out = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_inv")
    for gate in reversed(circuit.gates):
        if gate.name in _INVERSE_NAME:
            out.append(make_gate(_INVERSE_NAME[gate.name], gate.qubits))
        elif gate.name in _NEGATE_PARAM:
            out.append(make_gate(gate.name, gate.qubits, tuple(-p for p in gate.params)))
        elif gate.name == "u2":
            # u2(phi, lam) = u3(pi/2, phi, lam).
            phi, lam = gate.params
            out.append(make_gate("u3", gate.qubits, (-math.pi / 2, -lam, -phi)))
        elif gate.name in ("u3", "cu3"):
            th, phi, lam = gate.params
            out.append(make_gate(gate.name, gate.qubits, (-th, -lam, -phi)))
        elif gate.name in ("sx", "iswap"):
            # sx^4 = X^2 = I and iswap^4 = I exactly, so the inverse is
            # three applications.
            out.extend((gate,) * 3)
        else:  # pragma: no cover - registry is closed
            raise ValueError(f"no inverse rule for {gate.name!r}")
    return out


def remap_circuit(circuit: QuantumCircuit, mapping: Dict[int, int],
                  num_qubits: Optional[int] = None) -> QuantumCircuit:
    """Rename qubits through ``mapping`` (must be injective on used qubits).

    ``num_qubits`` defaults to the tightest register holding the image.
    """
    used = set(circuit.qubits_used())
    image = [mapping[q] for q in used]
    if len(set(image)) != len(image):
        raise ValueError("mapping is not injective on used qubits")
    width = num_qubits if num_qubits is not None else (max(image) + 1 if image else 1)
    out = QuantumCircuit(width, name=f"{circuit.name}_remap")
    for gate in circuit:
        out.append(gate.remap(mapping))
    return out
