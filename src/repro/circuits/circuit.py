"""Quantum circuit container.

A :class:`QuantumCircuit` is an ordered gate list over ``num_qubits`` qubits.
It is the single IR shared by the DAG builder, the partitioners and every
simulator in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import Gate, make_gate

__all__ = ["QuantumCircuit", "CircuitStats"]


@dataclass(frozen=True)
class CircuitStats:
    """Aggregate statistics used for Table I style reporting."""

    num_qubits: int
    num_gates: int
    num_1q: int
    num_2q: int
    num_multi: int
    depth: int
    state_bytes: int

    def memory_human(self) -> str:
        """State-vector size as a human readable string (e.g. ``16 GB``)."""
        units = ["B", "KB", "MB", "GB", "TB", "PB"]
        size = float(self.state_bytes)
        for u in units:
            if size < 1024 or u == units[-1]:
                if size == int(size):
                    return f"{int(size)} {u}"
                return f"{size:.1f} {u}"
            size /= 1024
        raise AssertionError("unreachable")


class QuantumCircuit:
    """An ordered sequence of gates on ``num_qubits`` qubits.

    Gates are appended either via :meth:`append` or via named helpers
    (``h``, ``cx``, ...) generated for every registry entry, e.g.::

        qc = QuantumCircuit(3, name="ghz")
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []

    # -- container protocol -------------------------------------------------

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, idx: int) -> Gate:
        return self._gates[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits and self._gates == other._gates
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit({self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self._gates)})"
        )

    # -- construction --------------------------------------------------------

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a gate, validating operand ranges. Returns ``self``."""
        if max(gate.qubits) >= self.num_qubits:
            raise ValueError(
                f"gate {gate} out of range for {self.num_qubits} qubits"
            )
        self._gates.append(gate)
        return self

    def add(self, name: str, *qubits: int, params: Sequence[float] = ()) -> "QuantumCircuit":
        return self.append(make_gate(name, qubits, params))

    # Named helpers (kept explicit for discoverability / IDE support).
    def id(self, q: int):  # noqa: A003 - mirrors QASM mnemonic
        return self.add("id", q)

    def x(self, q: int):
        return self.add("x", q)

    def y(self, q: int):
        return self.add("y", q)

    def z(self, q: int):
        return self.add("z", q)

    def h(self, q: int):
        return self.add("h", q)

    def s(self, q: int):
        return self.add("s", q)

    def sdg(self, q: int):
        return self.add("sdg", q)

    def t(self, q: int):
        return self.add("t", q)

    def tdg(self, q: int):
        return self.add("tdg", q)

    def sx(self, q: int):
        return self.add("sx", q)

    def rx(self, theta: float, q: int):
        return self.add("rx", q, params=(theta,))

    def ry(self, theta: float, q: int):
        return self.add("ry", q, params=(theta,))

    def rz(self, theta: float, q: int):
        return self.add("rz", q, params=(theta,))

    def u1(self, lam: float, q: int):
        return self.add("u1", q, params=(lam,))

    def u2(self, phi: float, lam: float, q: int):
        return self.add("u2", q, params=(phi, lam))

    def u3(self, theta: float, phi: float, lam: float, q: int):
        return self.add("u3", q, params=(theta, phi, lam))

    def cx(self, control: int, target: int):
        return self.add("cx", control, target)

    def cy(self, control: int, target: int):
        return self.add("cy", control, target)

    def cz(self, control: int, target: int):
        return self.add("cz", control, target)

    def ch(self, control: int, target: int):
        return self.add("ch", control, target)

    def crx(self, theta: float, control: int, target: int):
        return self.add("crx", control, target, params=(theta,))

    def cry(self, theta: float, control: int, target: int):
        return self.add("cry", control, target, params=(theta,))

    def crz(self, theta: float, control: int, target: int):
        return self.add("crz", control, target, params=(theta,))

    def cu1(self, lam: float, control: int, target: int):
        return self.add("cu1", control, target, params=(lam,))

    def cu3(self, theta: float, phi: float, lam: float, control: int, target: int):
        return self.add("cu3", control, target, params=(theta, phi, lam))

    def swap(self, a: int, b: int):
        return self.add("swap", a, b)

    def iswap(self, a: int, b: int):
        return self.add("iswap", a, b)

    def rzz(self, theta: float, a: int, b: int):
        return self.add("rzz", a, b, params=(theta,))

    def ccx(self, c1: int, c2: int, target: int):
        return self.add("ccx", c1, c2, target)

    def ccz(self, c1: int, c2: int, target: int):
        return self.add("ccz", c1, c2, target)

    def cswap(self, control: int, a: int, b: int):
        return self.add("cswap", control, a, b)

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        for g in gates:
            self.append(g)
        return self

    def compose(self, other: "QuantumCircuit", qubit_map: Optional[Dict[int, int]] = None) -> "QuantumCircuit":
        """Append another circuit, optionally remapping its qubits."""
        for g in other:
            self.append(g.remap(qubit_map) if qubit_map else g)
        return self

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        qc = QuantumCircuit(self.num_qubits, name or self.name)
        qc._gates = list(self._gates)
        return qc

    # -- queries -------------------------------------------------------------

    def qubits_used(self) -> Tuple[int, ...]:
        used = set()
        for g in self._gates:
            used.update(g.qubits)
        return tuple(sorted(used))

    def depth(self) -> int:
        """Circuit depth: longest chain of qubit-dependent gates."""
        level = [0] * self.num_qubits
        d = 0
        for g in self._gates:
            lvl = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = lvl
            d = max(d, lvl)
        return d

    def stats(self) -> CircuitStats:
        n1 = sum(1 for g in self._gates if g.num_qubits == 1)
        n2 = sum(1 for g in self._gates if g.num_qubits == 2)
        nm = len(self._gates) - n1 - n2
        return CircuitStats(
            num_qubits=self.num_qubits,
            num_gates=len(self._gates),
            num_1q=n1,
            num_2q=n2,
            num_multi=nm,
            depth=self.depth(),
            state_bytes=16 * (1 << self.num_qubits),
        )

    def subcircuit(self, gate_indices: Sequence[int], name: Optional[str] = None) -> "QuantumCircuit":
        """Circuit containing only the selected gates (original order kept)."""
        qc = QuantumCircuit(self.num_qubits, name or f"{self.name}_sub")
        for i in sorted(gate_indices):
            qc.append(self._gates[i])
        return qc
