"""Phase-exact stabilizer (tableau) simulation of Clifford circuits.

Dense state-vector simulation costs ``O(2^n)`` memory no matter how
simple the circuit; for the Clifford subgroup (generated by
``H/S/CX``) the stabilizer formalism (PAPERS.md, quant-ph/0504117)
tracks the same state in ``O(n^2)`` bits.  This module supplies the
representation behind the per-part fast path the hierarchical executor
routes Clifford-only parts to.

Two ingredients make the representation *amplitude-exact* (not just
exact up to global phase, which is all a bare tableau gives):

* the stabilizer group is stored as ``n`` generators ``i^r * X_x * Z_z``
  (``x``/``z`` bit-masks, ``r`` mod 4), updated per gate by standard
  conjugation rules;
* one **reference amplitude** ``<x0|psi>`` is carried alongside and
  updated exactly per gate.  Basis-permutation and diagonal Clifford
  gates update it locally; ``H``/``SX`` mix exactly two amplitudes, and
  the ratio between them is an eighth root of unity recoverable from
  the tableau alone — so the reference never drifts, and every
  amplitude equals ``ratio(x) * ref_amp`` with the ratio an exact
  ``{+-1, +-i}``-phase times a power of ``sqrt(1/2)`` already folded
  into ``ref_amp``.

The supported gate set is exactly the registry's Clifford gates
(``GateDef.clifford``): ``id x y z h s sdg sx cx cy cz swap iswap``
(``cy``/``iswap`` via short Clifford decompositions).  Amplitudes agree
with the dense path to ~1e-13 (floating point only enters through
``sqrt(1/2)`` factors).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..circuits.gates import GATE_DEFS, Gate
from .kernels import check_operands

__all__ = ["StabilizerState", "is_clifford_circuit"]

_SQRT2_INV = 1.0 / math.sqrt(2.0)
#: Names this simulator implements (== every Clifford gate in the registry).
SUPPORTED_GATES = frozenset(
    name for name, d in GATE_DEFS.items() if d.clifford
)
#: Widest register :meth:`StabilizerState.to_dense` materialises (16 GiB
#: of amplitudes); ``method="auto"`` starts every run up to this width
#: on the tableau, since any of them could convert later.
MAX_DENSE_QUBITS = 30


def is_clifford_circuit(gates: Iterable[Gate]) -> bool:
    """True when every gate normalises the Pauli group.

    The check consults :attr:`~repro.circuits.gates.GateDef.clifford`
    (single source of truth) — never gate-name string matching.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> is_clifford_circuit(QuantumCircuit(2).h(0).cx(0, 1).gates)
    True
    >>> is_clifford_circuit(QuantumCircuit(2).h(0).t(1).gates)
    False
    """
    return all(g.is_clifford for g in gates)


class StabilizerState:
    """A stabilizer state over ``n`` qubits with exact amplitudes.

    The state starts as ``|0...0>`` and evolves under Clifford gates in
    polynomial time and ``O(n^2)`` memory — 60- or 100-qubit GHZ states
    are a few kilobytes where the dense vector could not even be
    allocated.  Amplitudes of individual basis states are available at
    any width (:meth:`amplitude`); the full dense vector only at widths
    where ``2^n`` is allocatable (:meth:`to_dense`).

    >>> import numpy as np
    >>> st = StabilizerState(2)
    >>> st.apply_named("h", (0,)); st.apply_named("cx", (0, 1))
    >>> np.round(st.to_dense(), 12)
    array([0.70710678+0.j, 0.        +0.j, 0.        +0.j, 0.70710678+0.j])
    >>> big = StabilizerState(60)                    # far beyond dense reach
    >>> big.apply_named("h", (0,))
    >>> for q in range(59): big.apply_named("cx", (q, q + 1))
    >>> abs(abs(big.amplitude((1 << 60) - 1)) ** 2 - 0.5) < 1e-14
    True
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = int(num_qubits)
        # Generator i: i^rs[i] * X_{xs[i]} * Z_{zs[i]} (bit-mask ints).
        self.xs: List[int] = [0] * num_qubits
        self.zs: List[int] = [1 << i for i in range(num_qubits)]
        self.rs: List[int] = [0] * num_qubits
        # Reference basis state and its exact amplitude.
        self.ref_index: int = 0
        self.ref_amp: complex = 1.0 + 0.0j

    # -- queries -----------------------------------------------------------

    @property
    def support_rank(self) -> int:
        """``k`` such that exactly ``2^k`` basis states have weight."""
        pivots: Dict[int, int] = {}
        for x in self.xs:
            while x:
                b = x & -x
                if b in pivots:
                    x ^= pivots[b]
                else:
                    pivots[b] = x
                    break
        return len(pivots)

    def amplitude(self, index: int) -> complex:
        """Exact amplitude ``<index|psi>`` (works at any width).

        >>> st = StabilizerState(1); st.apply_named("h", (0,))
        >>> st.apply_named("s", (0,))
        >>> abs(st.amplitude(1) - 1j / math.sqrt(2)) < 1e-14
        True
        """
        if not 0 <= index < (1 << self.num_qubits):
            raise ValueError("basis index out of range")
        rho = self._relative_amplitude(index)
        return rho * self.ref_amp

    @property
    def is_zero_state(self) -> bool:
        """True while the state is exactly ``|0...0>`` with amplitude 1.

        >>> st = StabilizerState(2); st.is_zero_state
        True
        >>> st.apply_named("h", (0,)); st.is_zero_state
        False
        """
        return self.ref_index == 0 and self.ref_amp == 1 and not any(self.xs)

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``2^n`` dense state vector.

        This is the part-boundary conversion: when a non-Clifford part
        consumes a stabilizer-represented state, the executor calls this
        once and continues on the dense path.  Raises above
        :data:`MAX_DENSE_QUBITS` rather than thrashing the machine.

        The ``2^k`` support amplitudes are the subset products of the
        ``k`` pivot Paulis, built by doubling in numpy integer arrays
        (``uint32`` masks, ``uint8`` phases): at most 12 bytes of
        temporaries per amplitude beside the 16-byte output.  Each
        written value is one of four exact ``i^p * ref_amp`` products,
        so the result is bitwise that of a one-product-per-step walk.

        >>> st = StabilizerState(1); st.apply_named("x", (0,))
        >>> st.to_dense().tolist()
        [0j, (1+0j)]
        """
        from . import simulator

        n = self.num_qubits
        if n > MAX_DENSE_QUBITS:
            raise ValueError(
                f"refusing to materialise 2^{n} dense amplitudes; "
                f"keep the state in stabilizer form at this width"
            )
        out = simulator.zero_state(n)
        out[0] = 0.0
        pivots = self._pivot_paulis()
        if pivots:
            xs, phases = _subset_products(pivots, self.ref_index)
            values = np.array([w * self.ref_amp for w in _I_POW])
            xs ^= np.uint32(self.ref_index)
            for lo in range(0, len(xs), _SCATTER_CHUNK):
                hi = lo + _SCATTER_CHUNK
                out[xs[lo:hi]] = values[phases[lo:hi]]
        out[self.ref_index] = self.ref_amp
        return out

    def copy(self) -> "StabilizerState":
        """Independent copy (the executor never mutates caller state).

        >>> a = StabilizerState(2); b = a.copy()
        >>> b.apply_named("x", (0,)); a.amplitude(0)
        (1+0j)
        """
        out = StabilizerState.__new__(StabilizerState)
        out.num_qubits = self.num_qubits
        out.xs = list(self.xs)
        out.zs = list(self.zs)
        out.rs = list(self.rs)
        out.ref_index = self.ref_index
        out.ref_amp = self.ref_amp
        return out

    # -- gate application --------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        """Apply one registry :class:`~repro.circuits.gates.Gate`.

        >>> from repro.circuits.gates import make_gate
        >>> st = StabilizerState(2)
        >>> st.apply_gate(make_gate("h", [1]))
        >>> abs(abs(st.amplitude(2)) ** 2 - 0.5) < 1e-14
        True
        """
        if not gate.is_clifford:
            raise ValueError(
                f"gate {gate.name!r} is not Clifford; route this part "
                f"to the dense engine"
            )
        self.apply_named(gate.name, gate.qubits)

    def apply_named(self, name: str, qubits: Tuple[int, ...]) -> None:
        """Apply a Clifford gate by registry name and operand tuple.

        A wrong operand count, or an operand that is duplicated or
        outside the register, is refused before the state is touched.

        >>> st = StabilizerState(2)
        >>> st.apply_named("cx", (1, 1))
        Traceback (most recent call last):
        ...
        ValueError: duplicate operands in (1, 1)
        >>> st.apply_named("h", (0, 1))
        Traceback (most recent call last):
        ...
        ValueError: gate 'h' takes 1 qubit(s), got (0, 1)
        """
        handler = _DISPATCH.get(name)
        if handler is None:
            raise ValueError(f"unsupported stabilizer gate {name!r}")
        qubits = tuple(qubits)
        if len(qubits) != GATE_DEFS[name].num_qubits:
            raise ValueError(
                f"gate {name!r} takes {GATE_DEFS[name].num_qubits} "
                f"qubit(s), got {qubits}"
            )
        check_operands(qubits, self.num_qubits)
        handler(self, *qubits)

    def apply_all(self, gates: Iterable[Gate]) -> None:
        """Apply a gate sequence in order.

        >>> from repro.circuits.circuit import QuantumCircuit
        >>> st = StabilizerState(2)
        >>> st.apply_all(QuantumCircuit(2).x(0).cx(0, 1).gates)
        >>> st.amplitude(3)
        (1+0j)
        """
        for g in gates:
            self.apply_gate(g)

    # -- single-qubit Cliffords --------------------------------------------

    def _h(self, q: int) -> None:
        new_low, new_high, low = self._mix_pair(q, _H_COEFF)
        m = 1 << q
        for i in range(self.num_qubits):
            a = (self.xs[i] >> q) & 1
            b = (self.zs[i] >> q) & 1
            if a != b:
                self.xs[i] ^= m
                self.zs[i] ^= m
            elif a:  # a == b == 1: X<->Z swap is identity, sign flips
                self.rs[i] = (self.rs[i] + 2) & 3
        self._pick_reference(low, m, new_low, new_high)

    def _sx(self, q: int) -> None:
        new_low, new_high, low = self._mix_pair(q, _SX_COEFF)
        m = 1 << q
        for i in range(self.num_qubits):
            if (self.zs[i] >> q) & 1:
                self.rs[i] = (self.rs[i] + 3) & 3
                self.xs[i] ^= m
        self._pick_reference(low, m, new_low, new_high)

    def _s(self, q: int) -> None:
        m = 1 << q
        for i in range(self.num_qubits):
            if (self.xs[i] >> q) & 1:
                self.rs[i] = (self.rs[i] + 1) & 3
                self.zs[i] ^= m
        if (self.ref_index >> q) & 1:
            self.ref_amp *= 1j

    def _sdg(self, q: int) -> None:
        m = 1 << q
        for i in range(self.num_qubits):
            if (self.xs[i] >> q) & 1:
                self.rs[i] = (self.rs[i] + 3) & 3
                self.zs[i] ^= m
        if (self.ref_index >> q) & 1:
            self.ref_amp *= -1j

    def _x(self, q: int) -> None:
        for i in range(self.num_qubits):
            if (self.zs[i] >> q) & 1:
                self.rs[i] = (self.rs[i] + 2) & 3
        self.ref_index ^= 1 << q

    def _y(self, q: int) -> None:
        for i in range(self.num_qubits):
            if ((self.xs[i] ^ self.zs[i]) >> q) & 1:
                self.rs[i] = (self.rs[i] + 2) & 3
        self.ref_amp *= 1j if not (self.ref_index >> q) & 1 else -1j
        self.ref_index ^= 1 << q

    def _z(self, q: int) -> None:
        for i in range(self.num_qubits):
            if (self.xs[i] >> q) & 1:
                self.rs[i] = (self.rs[i] + 2) & 3
        if (self.ref_index >> q) & 1:
            self.ref_amp = -self.ref_amp

    def _id(self, q: int) -> None:
        pass

    # -- two-qubit Cliffords -----------------------------------------------

    def _cx(self, c: int, t: int) -> None:
        mc, mt = 1 << c, 1 << t
        for i in range(self.num_qubits):
            if (self.xs[i] >> c) & 1:
                self.xs[i] ^= mt
            if (self.zs[i] >> t) & 1:
                self.zs[i] ^= mc
        if (self.ref_index >> c) & 1:
            self.ref_index ^= mt

    def _cz(self, c: int, t: int) -> None:
        mc, mt = 1 << c, 1 << t
        for i in range(self.num_qubits):
            xc = (self.xs[i] >> c) & 1
            xt = (self.xs[i] >> t) & 1
            if xc and xt:
                self.rs[i] = (self.rs[i] + 2) & 3
            if xc:
                self.zs[i] ^= mt
            if xt:
                self.zs[i] ^= mc
        if (self.ref_index >> c) & 1 and (self.ref_index >> t) & 1:
            self.ref_amp = -self.ref_amp

    def _swap(self, a: int, b: int) -> None:
        ma, mb = 1 << a, 1 << b
        for i in range(self.num_qubits):
            xa = (self.xs[i] >> a) & 1
            xb = (self.xs[i] >> b) & 1
            if xa != xb:
                self.xs[i] ^= ma | mb
            za = (self.zs[i] >> a) & 1
            zb = (self.zs[i] >> b) & 1
            if za != zb:
                self.zs[i] ^= ma | mb
        ra = (self.ref_index >> a) & 1
        rb = (self.ref_index >> b) & 1
        if ra != rb:
            self.ref_index ^= ma | mb

    def _cy(self, c: int, t: int) -> None:
        # CY = S_t . CX . Sdg_t (controls first, matching the registry).
        self._sdg(t)
        self._cx(c, t)
        self._s(t)

    def _iswap(self, a: int, b: int) -> None:
        # iSWAP = SWAP . CZ . (S x S).
        self._s(a)
        self._s(b)
        self._cz(a, b)
        self._swap(a, b)

    # -- internals ---------------------------------------------------------

    def _mix_pair(
        self, q: int, coeff: Tuple[Tuple[complex, complex], ...]
    ) -> Tuple[complex, complex, int]:
        """Pre-update amplitudes after a 1q superposing gate on ``q``.

        Returns ``(new_low, new_high, low)`` where ``low`` is the
        reference index with bit ``q`` cleared and ``new_low`` /
        ``new_high`` are the post-gate amplitudes at ``low`` and
        ``low | (1 << q)``.  Must be called *before* the tableau rows
        are updated (the amplitude ratio comes from the old state).
        """
        m = 1 << q
        rho = self._relative_amplitude(self.ref_index ^ m)
        if (self.ref_index >> q) & 1:
            base0, base1 = rho * self.ref_amp, self.ref_amp
        else:
            base0, base1 = self.ref_amp, rho * self.ref_amp
        (c00, c01), (c10, c11) = coeff
        new_low = c00 * base0 + c01 * base1
        new_high = c10 * base0 + c11 * base1
        return new_low, new_high, self.ref_index & ~m

    def _pick_reference(
        self, low: int, m: int, new_low: complex, new_high: complex
    ) -> None:
        """Adopt whichever of the two mixed amplitudes is non-zero.

        Destructive interference is exact here (the cancelling terms are
        equal-magnitude eighth-root multiples of one float), so the
        magnitude test has a wide margin: a non-zero outcome is at least
        ``|ref_amp| / sqrt(2)``.
        """
        threshold = 0.25 * abs(self.ref_amp)
        if abs(new_low) > threshold:
            self.ref_index, self.ref_amp = low, new_low
        else:
            self.ref_index, self.ref_amp = low | m, new_high

    def _relative_amplitude(self, index: int) -> complex:
        """Exact ratio ``<index|psi> / <ref|psi>`` (0 outside support)."""
        v = index ^ self.ref_index
        if v == 0:
            return 1.0 + 0.0j
        combo = self._solve_xparts(v)
        if combo is None:
            return 0.0 + 0.0j
        gx = gz = gr = 0
        for i in range(self.num_qubits):
            if (combo >> i) & 1:
                gr = (gr + self.rs[i] + 2 * _parity(gz & self.xs[i])) & 3
                gx ^= self.xs[i]
                gz ^= self.zs[i]
        phase = (gr + 2 * _parity(gz & self.ref_index)) & 3
        return _I_POW[phase]

    def _solve_xparts(self, v: int) -> Optional[int]:
        """Generator subset (bit-mask) whose X-parts XOR to ``v``."""
        pivots: Dict[int, Tuple[int, int]] = {}
        for i in range(self.num_qubits):
            x, marker = self.xs[i], 1 << i
            while x:
                b = x & -x
                entry = pivots.get(b)
                if entry is None:
                    pivots[b] = (x, marker)
                    break
                x ^= entry[0]
                marker ^= entry[1]
        marker = 0
        while v:
            entry = pivots.get(v & -v)
            if entry is None:
                return None
            v ^= entry[0]
            marker ^= entry[1]
        return marker

    def _pivot_paulis(self) -> List[Tuple[int, int, int]]:
        """Stabilizer elements with independent X-parts (echelon form)."""
        pivots: Dict[int, Tuple[int, int, int]] = {}
        for i in range(self.num_qubits):
            x, z, r = self.xs[i], self.zs[i], self.rs[i]
            while x:
                b = x & -x
                entry = pivots.get(b)
                if entry is None:
                    pivots[b] = (x, z, r)
                    break
                px, pz, pr = entry
                r = (r + pr + 2 * _parity(z & px)) & 3
                x ^= px
                z ^= pz
        return list(pivots.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StabilizerState(n={self.num_qubits}, "
            f"support=2^{self.support_rank})"
        )


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _subset_products(
    pivots: List[Tuple[int, int, int]], ref_index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """X-masks and amplitude phases of every product of ``pivots``.

    Entry ``s`` of both arrays belongs to the product over the pivots
    whose bits are set in ``s``: its X-mask, and the power ``p`` of
    ``i`` with ``<ref ^ mask|psi> = i^p <ref|psi>``.  Doubling appends
    pivot ``j`` to the ``2^j`` products built so far.  The pivots
    commute, so the phase of ``P_S * P_j`` adds ``r_j`` and twice the
    parity of ``z_S & x_j``.  That parity is XOR-linear in ``S``, so
    bit ``j`` of ``cross[S]`` carries it and doubling builds ``cross``
    too.  The read-off term ``2 * parity(z_S & ref)`` is linear as
    well and folds into each pivot's own phase.
    """
    k = len(pivots)
    xs = np.zeros(1 << k, dtype=np.uint32)
    cross = np.zeros(1 << k, dtype=np.uint32)
    phases = np.zeros(1 << k, dtype=np.uint8)
    for j, (px, pz, pr) in enumerate(pivots):
        h = 1 << j
        row = sum(
            _parity(pz & pivots[t][0]) << t for t in range(j + 1, k)
        )
        np.bitwise_xor(xs[:h], np.uint32(px), out=xs[h : 2 * h])
        np.bitwise_xor(cross[:h], np.uint32(row), out=cross[h : 2 * h])
        step = (cross[:h] >> np.uint32(j)).astype(np.uint8)
        step &= np.uint8(1)
        step <<= np.uint8(1)
        step += phases[:h]
        step += np.uint8((pr + 2 * _parity(pz & ref_index)) & 3)
        step &= np.uint8(3)
        phases[h : 2 * h] = step
    return xs, phases


_I_POW = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)
#: Amplitudes written per fancy-index call in ``to_dense`` (bounds the
#: index and value temporaries).
_SCATTER_CHUNK = 1 << 14

_H_COEFF = ((_SQRT2_INV, _SQRT2_INV), (_SQRT2_INV, -_SQRT2_INV))
_SX_COEFF = (
    (0.5 + 0.5j, 0.5 - 0.5j),
    (0.5 - 0.5j, 0.5 + 0.5j),
)

_DISPATCH = {
    "id": StabilizerState._id,
    "x": StabilizerState._x,
    "y": StabilizerState._y,
    "z": StabilizerState._z,
    "h": StabilizerState._h,
    "s": StabilizerState._s,
    "sdg": StabilizerState._sdg,
    "sx": StabilizerState._sx,
    "cx": StabilizerState._cx,
    "cy": StabilizerState._cy,
    "cz": StabilizerState._cz,
    "swap": StabilizerState._swap,
    "iswap": StabilizerState._iswap,
}
