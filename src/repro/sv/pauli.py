"""Pauli-string observables on state vectors.

Downstream users of a state-vector simulator almost always want
``<psi| P |psi>`` for Pauli strings ``P`` (VQE/QAOA energies, correlation
functions).  The implementation is measurement-free and vectorised:
Z-factors become index-parity sign masks and X/Y factors become index
XOR-permutations, so no gate application or state copy is needed for
Z-only strings and exactly one permuted view otherwise.  A term's masks
are built once per width and kept for recent terms, so a sweep's jobs
each pay one multiply-sum per term.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = ["pauli_expectation", "PauliTerm", "expectations", "energy"]

PauliTerm = Union[str, Mapping[int, str]]


def _normalise(term: PauliTerm, num_qubits: int) -> Dict[int, str]:
    """Accept 'XZI...' strings (qubit 0 leftmost) or {qubit: 'X'} maps."""
    if isinstance(term, str):
        if len(term) != num_qubits:
            raise ValueError(
                f"Pauli string length {len(term)} != {num_qubits} qubits"
            )
        term = dict(enumerate(term))
    ops = {}
    for q, c in term.items():
        if not isinstance(c, str):
            raise ValueError(f"bad Pauli {c!r}")
        if c.upper() != "I":
            ops[int(q)] = c.upper()
    for q, c in ops.items():
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range")
        if c not in ("X", "Y", "Z"):
            raise ValueError(f"bad Pauli {c!r}")
    return ops


def pauli_expectation(
    state: np.ndarray, term: PauliTerm, num_qubits: int
) -> float:
    """``<state| P |state>`` for one Pauli string (real by Hermiticity).

    Accepts ``"XZI"``-style strings (qubit 0 leftmost) or sparse
    ``{qubit: op}`` maps.

    >>> import numpy as np
    >>> state = np.zeros(2, dtype=np.complex128); state[1] = 1.0   # |1>
    >>> pauli_expectation(state, "Z", 1)
    -1.0
    >>> plus = np.full(2, 2**-0.5, dtype=np.complex128)            # |+>
    >>> round(pauli_expectation(plus, {0: "X"}, 1), 12)
    1.0
    """
    ops = _normalise(term, num_qubits)
    if state.shape != (1 << num_qubits,):
        raise ValueError("state length mismatch")
    phase, flip = _term_masks(tuple(ops.items()), num_qubits)
    if not flip:
        return float(np.real(np.sum(phase * np.abs(state) ** 2)))
    # Amplitude i XOR the X/Y mask: the state with those bits' axes
    # reversed, copied contiguous.
    flipped = np.flip(state.reshape((2,) * num_qubits), flip).reshape(-1)
    return float(np.real(np.sum(np.conj(state) * phase * flipped)))


#: Kept masks, least recently used first, and the bytes they hold (a
#: term counts its phase's, at least 4 KiB): at most 24 MiB.
_MASKS: "OrderedDict[tuple, tuple]" = OrderedDict()
_MASK_BUDGET = 24 << 20
_MASKS_LOCK = threading.Lock()
_masks_held = 0


def _term_masks(
    factors: Tuple[Tuple[int, str], ...], num_qubits: int
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """``(phase, flip)`` of a normalised Pauli term: ``P|i> =
    phase[i'] |i'>`` with ``i'`` the index XOR the term's ``X``/``Y``
    qubits — ``phase`` the sign (and ``±i`` for ``Y``) per basis index,
    ``flip`` the axes of a ``(2,) * n`` view of the state those qubits
    index (empty when there are none).  Factors multiply in the term's
    order, so the phase has the bits of a per-call build; it is shared
    read-only.  The most recently used terms keep their masks, as many
    as 24 MiB holds (96 terms at 14 qubits, 24 at 16, none past 20)."""
    global _masks_held
    key = (factors, num_qubits)
    with _MASKS_LOCK:
        if key in _MASKS:
            _MASKS.move_to_end(key)
            return _MASKS[key]
    masks = _build_masks(factors, num_qubits)
    with _MASKS_LOCK:  # a term wider than the budget is not kept
        if key not in _MASKS and masks[0].nbytes <= _MASK_BUDGET:
            _MASKS[key] = masks
            _masks_held += max(masks[0].nbytes, 4096)
        while _masks_held > _MASK_BUDGET:
            _masks_held -= max(_MASKS.popitem(last=False)[1][0].nbytes, 4096)
    return masks


def _build_masks(
    factors: Tuple[Tuple[int, str], ...], num_qubits: int
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    flip = []
    phase = np.ones(idx.size, dtype=np.complex128)
    for q, c in factors:
        bit = (idx >> q) & 1
        if c == "Z":
            phase *= 1.0 - 2.0 * bit
        elif c == "X":
            flip.append(num_qubits - 1 - q)
        else:  # Y: <a|Y|1-a> = -i for a=0, +i for a=1.
            flip.append(num_qubits - 1 - q)
            phase *= -1j * (1.0 - 2.0 * bit)
    phase.setflags(write=False)
    return phase, tuple(flip)


def expectations(
    state: np.ndarray,
    terms: Sequence[PauliTerm],
    num_qubits: int,
) -> List[float]:
    """``<state| P_k |state>`` for a sequence of Pauli strings.

    The batched form the serving runtime uses for expectation-value job
    outputs: one float per requested term, in order.

    >>> import numpy as np
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0  # |00>
    >>> [round(v, 12) for v in expectations(state, ["ZI", "ZZ", "XI"], 2)]
    [1.0, 1.0, 0.0]
    """
    return [pauli_expectation(state, term, num_qubits) for term in terms]


def energy(
    state: np.ndarray,
    hamiltonian: Iterable[Tuple[float, PauliTerm]],
    num_qubits: int,
) -> float:
    """Weighted sum of Pauli expectations: ``sum_k c_k <P_k>``.

    >>> import numpy as np
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0   # |00>
    >>> energy(state, [(0.5, "ZI"), (-2.0, "ZZ")], 2)   # 0.5*1 - 2*1
    -1.5
    """
    return sum(
        float(c) * pauli_expectation(state, term, num_qubits)
        for c, term in hamiltonian
    )
