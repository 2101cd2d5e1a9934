"""Bit-level index math shared by every simulator component.

State-vector indices are little-endian: bit ``k`` of a flat index is qubit
``k``.  A C-ordered tensor view ``state.reshape((2,)*n)`` therefore puts
qubit ``q`` on axis ``n - 1 - q`` (:func:`axis_of_qubit`).

The distributed engine describes data layouts as **bit permutations**; the
helpers here (``spread_bits`` / ``extract_bits`` / ``permute_bits``) are the
vectorised index primitives (gather tables, rank lists, test oracles), and
:func:`permuted_view` applies such a permutation to the data itself.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "axis_of_qubit",
    "spread_bits",
    "extract_bits",
    "permute_bits",
    "gather_index_table",
    "gather_index_factors",
    "permuted_view",
    "QubitLayout",
]


def axis_of_qubit(n: int, q: int) -> int:
    """Tensor-view axis of qubit ``q`` in an ``n``-qubit C-ordered view.

    >>> axis_of_qubit(5, 0)   # least-significant qubit = last axis
    4
    >>> axis_of_qubit(5, 4)
    0
    """
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} out of range for n={n}")
    return n - 1 - q


def spread_bits(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Scatter compact bits into arbitrary positions.

    Bit ``i`` of each value is placed at ``positions[i]`` of the result
    (a vectorised PDEP).  Positions must be distinct.

    >>> spread_bits(np.array([0b11]), [0, 3])   # bits land at 0 and 3
    array([9])
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(values)
    for i, pos in enumerate(positions):
        out |= ((values >> i) & 1) << int(pos)
    return out


def extract_bits(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Gather bits from arbitrary positions into a compact value.

    Bit at ``positions[i]`` of each value becomes bit ``i`` of the result
    (a vectorised PEXT).  Inverse of :func:`spread_bits` on its image.

    >>> extract_bits(np.array([0b1001]), [0, 3])
    array([3])
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(values)
    for i, pos in enumerate(positions):
        out |= ((values >> int(pos)) & 1) << i
    return out


def permute_bits(values: np.ndarray, sigma: Sequence[int]) -> np.ndarray:
    """Apply a bit permutation: bit ``j`` of input moves to bit ``sigma[j]``.

    ``sigma`` must be a permutation of ``range(len(sigma))``; bits above
    ``len(sigma)`` must be zero in ``values``.

    >>> permute_bits(np.array([0b01]), [1, 0])   # swap the low two bits
    array([2])
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(values)
    for j, dst in enumerate(sigma):
        out |= ((values >> j) & 1) << int(dst)
    return out


def gather_index_table(n: int, inner_qubits: Sequence[int]) -> np.ndarray:
    """Index table realising Algorithm 1's Gather.

    Returns an int64 array of shape ``(2^(n-w), 2^w)`` where row ``t`` holds
    the flat outer-state indices of inner state vector ``t``: column ``j``
    fixes the non-inner qubits to the bits of ``t`` and the inner qubits
    (in the given order, first = least significant of ``j``) to the bits of
    ``j``.  ``out_sv[table[t]]`` *is* the ``t``-th inner state vector.

    >>> gather_index_table(3, [1])     # inner qubit 1; outer qubits 0, 2
    array([[0, 2],
           [1, 3],
           [4, 6],
           [5, 7]])
    """
    t_vals, j_vals = gather_index_factors(n, inner_qubits)
    return t_vals[:, None] + j_vals[None, :]


def gather_index_factors(
    n: int, inner_qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The two factors of :func:`gather_index_table`: ``(t_vals,
    j_vals)``, the flat index of each row's first amplitude
    (``2^(n-w)`` entries) and each column's offset from it (``2^w``).
    The inner and outer qubits are disjoint, so ``table[t, j] ==
    t_vals[t] + j_vals[j]``.

    >>> gather_index_factors(3, [1])
    (array([0, 1, 4, 5]), array([0, 2]))
    """
    inner = list(inner_qubits)
    if len(set(inner)) != len(inner):
        raise ValueError("inner qubits must be distinct")
    outer = [q for q in range(n) if q not in set(inner)]
    t_vals = spread_bits(np.arange(1 << len(outer), dtype=np.int64), outer)
    j_vals = spread_bits(np.arange(1 << len(inner), dtype=np.int64), inner)
    return t_vals, j_vals


def permuted_view(flat: np.ndarray, sigma: Sequence[int]) -> np.ndarray:
    """The ``(2,)*n`` view of ``flat`` with its bits permuted by ``sigma``.

    The one place a bit permutation is applied to data: the view's
    C-order flat index is the *new* packed index, so
    ``np.array(view, order="C").reshape(-1)[permute_bits(i, sigma)] ==
    flat[i]`` — one strided copy, no index array.  ``flat`` must hold
    ``2^len(sigma)`` elements and ``sigma`` be a permutation (checked in
    O(n)); :func:`permute_bits` is the definition this is tested against.

    >>> view = permuted_view(np.arange(4), [1, 0])    # swap the two bits
    >>> np.array(view, order="C").reshape(-1)
    array([0, 2, 1, 3])
    """
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(
            f"sigma {list(sigma)} is not a permutation of range({n})"
        )
    if flat.shape != (1 << n,):
        raise ValueError(
            f"a {n}-bit permutation needs a flat buffer of {1 << n} "
            f"elements, got shape {flat.shape}"
        )
    axes = [0] * n
    for j, dst in enumerate(sigma):  # bit j = axis n-1-j moves to bit dst
        axes[axis_of_qubit(n, dst)] = axis_of_qubit(n, j)
    return flat.reshape((2,) * n).transpose(axes)


class QubitLayout:
    """A bijection qubit -> bit position describing a data layout.

    Position ``p`` means "bit ``p`` of the packed storage index".  In the
    distributed setting positions ``>= local_bits`` address the rank and the
    rest address the offset within the rank's shard (Sec. III-D).

    >>> layout = QubitLayout([1, 0, 2])    # qubits 0 and 1 swapped
    >>> layout.position(0), layout.qubit_at(0)
    (1, 1)
    >>> int(layout.packed_index(np.array([0b001]))[0])   # |q0=1> stored at bit 1
    2
    >>> layout.transition_sigma(QubitLayout.identity(3))
    [1, 0, 2]
    """

    __slots__ = ("n", "_pos_of_qubit", "_qubit_at_pos")

    def __init__(self, positions: Sequence[int]):
        pos = [int(p) for p in positions]
        n = len(pos)
        if sorted(pos) != list(range(n)):
            raise ValueError("positions must be a permutation of range(n)")
        self.n = n
        self._pos_of_qubit: Tuple[int, ...] = tuple(pos)
        inv = [0] * n
        for q, p in enumerate(pos):
            inv[p] = q
        self._qubit_at_pos: Tuple[int, ...] = tuple(inv)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "QubitLayout":
        """The layout storing qubit ``q`` at bit position ``q``."""
        return cls(range(n))

    # -- queries ----------------------------------------------------------

    def position(self, qubit: int) -> int:
        """Storage-bit position of ``qubit``."""
        return self._pos_of_qubit[qubit]

    def qubit_at(self, position: int) -> int:
        """Qubit stored at bit ``position`` (inverse of :meth:`position`)."""
        return self._qubit_at_pos[position]

    @property
    def positions(self) -> Tuple[int, ...]:
        """``positions[q]`` = bit position of qubit ``q``."""
        return self._pos_of_qubit

    def qubits_in_positions(self, lo: int, hi: int) -> List[int]:
        """Qubits stored at positions ``lo..hi-1`` (ascending position)."""
        return [self._qubit_at_pos[p] for p in range(lo, hi)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QubitLayout):
            return NotImplemented
        return self._pos_of_qubit == other._pos_of_qubit

    def __hash__(self) -> int:
        return hash(self._pos_of_qubit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QubitLayout({list(self._pos_of_qubit)})"

    # -- algebra ----------------------------------------------------------

    def transition_sigma(self, new: "QubitLayout") -> List[int]:
        """Position-to-position map realising a layout change.

        Returns ``sigma`` with ``sigma[p] = new position of the qubit
        currently at position p`` — :func:`permute_bits` maps old packed
        indices to new ones with it, :func:`permuted_view` moves the data.
        """
        if new.n != self.n:
            raise ValueError("layout size mismatch")
        return [new._pos_of_qubit[self._qubit_at_pos[p]] for p in range(self.n)]

    def logical_index(self, packed: np.ndarray) -> np.ndarray:
        """Map packed storage indices to logical basis-state indices."""
        # bit at position p belongs to qubit qubit_at(p): move p -> qubit.
        return permute_bits(packed, self._qubit_at_pos)

    def packed_index(self, logical: np.ndarray) -> np.ndarray:
        """Map logical basis-state indices to packed storage indices."""
        return permute_bits(logical, self._pos_of_qubit)
