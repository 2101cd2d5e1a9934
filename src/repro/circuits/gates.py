"""Quantum gate definitions and matrix factory.

Conventions
-----------
* Amplitude indices are **little-endian**: bit ``k`` of a flat state-vector
  index is the value of qubit ``k``.
* A :class:`Gate` acting on operands ``(q_0, ..., q_{k-1})`` has a
  ``2^k x 2^k`` unitary whose small-vector index is
  ``j = sum_i bit(q_i) << i`` — i.e. the **first operand is the least
  significant bit** of the local index.
* Controlled gates list controls first, target(s) last; their matrices are
  built programmatically from the base matrix so that transcription errors
  are impossible.

Every matrix returned by this module is a fresh ``complex128`` array,
except from :func:`shared_gate_matrix`, which hands out the cached
read-only one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate",
    "GateDef",
    "GATE_DEFS",
    "gate_matrix",
    "shared_gate_matrix",
    "gate_permutation",
    "MATRIX_CACHE_MAX",
    "GATE_CACHE_MAX",
    "make_gate",
    "controlled",
    "is_unitary",
    "SQRT2_INV",
]

SQRT2_INV = 1.0 / math.sqrt(2.0)

# ---------------------------------------------------------------------------
# Base matrices
# ---------------------------------------------------------------------------


def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


def _id() -> np.ndarray:
    return np.eye(2, dtype=np.complex128)


def _x() -> np.ndarray:
    return _mat([[0, 1], [1, 0]])


def _y() -> np.ndarray:
    return _mat([[0, -1j], [1j, 0]])


def _z() -> np.ndarray:
    return _mat([[1, 0], [0, -1]])


def _h() -> np.ndarray:
    return SQRT2_INV * _mat([[1, 1], [1, -1]])


def _s() -> np.ndarray:
    return _mat([[1, 0], [0, 1j]])


def _sdg() -> np.ndarray:
    return _mat([[1, 0], [0, -1j]])


def _t() -> np.ndarray:
    return _mat([[1, 0], [0, np.exp(1j * math.pi / 4)]])


def _tdg() -> np.ndarray:
    return _mat([[1, 0], [0, np.exp(-1j * math.pi / 4)]])


def _sx() -> np.ndarray:
    return 0.5 * _mat([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    return _mat([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


def _u1(lam: float) -> np.ndarray:
    return _mat([[1, 0], [0, np.exp(1j * lam)]])


def _u2(phi: float, lam: float) -> np.ndarray:
    return SQRT2_INV * _mat(
        [[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]]
    )


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


# ---------------------------------------------------------------------------
# Multi-qubit construction helpers
# ---------------------------------------------------------------------------


def controlled(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Return the controlled version of ``base``.

    Operand order is ``(controls..., targets...)`` and — per the module
    convention — controls occupy the *low* bits of the local index.  The
    gate applies ``base`` to the targets only when **all** control bits
    are 1.
    """
    if num_controls < 0:
        raise ValueError("num_controls must be non-negative")
    m = base.copy()
    for _ in range(num_controls):
        dim = m.shape[0]
        out = np.eye(2 * dim, dtype=np.complex128)
        # New control becomes local bit 0 (the innermost / least significant
        # operand).  Indices with bit0 == 1 and identical remaining bits get
        # the base action.
        odd = np.arange(dim) * 2 + 1
        out[np.ix_(odd, odd)] = m
        m = out
    return m


def _swap() -> np.ndarray:
    # |q0 q1> -> |q1 q0>: local index j = q0 + 2*q1.
    m = np.zeros((4, 4), dtype=np.complex128)
    for q0 in (0, 1):
        for q1 in (0, 1):
            m[q1 + 2 * q0, q0 + 2 * q1] = 1.0
    return m


def _iswap() -> np.ndarray:
    m = _swap()
    m[1, 2] = 1j
    m[2, 1] = 1j
    m[1, 1] = m[2, 2] = 0.0
    return m


def _rzz(theta: float) -> np.ndarray:
    # exp(-i theta/2 Z⊗Z): diagonal with phase by parity of the two bits.
    ph = np.exp(-1j * theta / 2)
    phc = np.exp(1j * theta / 2)
    return np.diag([ph, phc, phc, ph]).astype(np.complex128)


def is_unitary(m: np.ndarray, atol: float = 1e-10) -> bool:
    """True iff ``m`` is (numerically) unitary."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=atol))


# ---------------------------------------------------------------------------
# Gate registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateDef:
    """Static description of a gate type.

    Attributes
    ----------
    name:
        Lower-case OpenQASM-style mnemonic.
    num_qubits:
        Operand count.
    num_params:
        Number of real parameters.
    factory:
        Callable mapping ``params`` to the unitary matrix.
    diagonal:
        True when every parameterisation yields a diagonal matrix (used by
        simulators to pick cheaper kernels).
    num_controls:
        Leading operands acting as controls (distributed simulators use
        control/target structure for communication-avoiding fast paths).
    clifford:
        True when every parameterisation maps Paulis to Paulis under
        conjugation.  This is the single source of truth for plan-time
        method routing: a part whose gates are all Clifford may execute
        on a stabilizer tableau instead of the dense state vector.
        Parameterised gates are never Clifford here (special angles such
        as ``rz(pi/2)`` exist but are not detectable from the definition).
    """

    name: str
    num_qubits: int
    num_params: int
    factory: Callable[..., np.ndarray]
    diagonal: bool = False
    num_controls: int = 0
    clifford: bool = False


def _def(name, nq, npar, factory, diagonal=False, controls=0, clifford=False) -> GateDef:
    return GateDef(name, nq, npar, factory, diagonal, controls, clifford)


GATE_DEFS: Dict[str, GateDef] = {
    d.name: d
    for d in [
        _def("id", 1, 0, _id, diagonal=True, clifford=True),
        _def("x", 1, 0, _x, clifford=True),
        _def("y", 1, 0, _y, clifford=True),
        _def("z", 1, 0, _z, diagonal=True, clifford=True),
        _def("h", 1, 0, _h, clifford=True),
        _def("s", 1, 0, _s, diagonal=True, clifford=True),
        _def("sdg", 1, 0, _sdg, diagonal=True, clifford=True),
        _def("t", 1, 0, _t, diagonal=True),
        _def("tdg", 1, 0, _tdg, diagonal=True),
        _def("sx", 1, 0, _sx, clifford=True),
        _def("rx", 1, 1, _rx),
        _def("ry", 1, 1, _ry),
        _def("rz", 1, 1, _rz, diagonal=True),
        _def("u1", 1, 1, _u1, diagonal=True),
        _def("u2", 1, 2, _u2),
        _def("u3", 1, 3, _u3),
        _def("cx", 2, 0, lambda: controlled(_x()), controls=1, clifford=True),
        _def("cy", 2, 0, lambda: controlled(_y()), controls=1, clifford=True),
        _def("cz", 2, 0, lambda: controlled(_z()), diagonal=True, controls=1,
             clifford=True),
        _def("ch", 2, 0, lambda: controlled(_h()), controls=1),
        _def("crx", 2, 1, lambda th: controlled(_rx(th)), controls=1),
        _def("cry", 2, 1, lambda th: controlled(_ry(th)), controls=1),
        _def("crz", 2, 1, lambda th: controlled(_rz(th)), diagonal=True, controls=1),
        _def("cu1", 2, 1, lambda lam: controlled(_u1(lam)), diagonal=True, controls=1),
        _def(
            "cu3",
            2,
            3,
            lambda th, ph, lam: controlled(_u3(th, ph, lam)),
            controls=1,
        ),
        _def("swap", 2, 0, _swap, clifford=True),
        _def("iswap", 2, 0, _iswap, clifford=True),
        _def("rzz", 2, 1, _rzz, diagonal=True),
        _def("ccx", 3, 0, lambda: controlled(_x(), 2), controls=2),
        _def("ccz", 3, 0, lambda: controlled(_z(), 2), diagonal=True, controls=2),
        _def("cswap", 3, 0, lambda: controlled(_swap()), controls=1),
    ]
}


@dataclass(frozen=True, slots=True)
class Gate:
    """A gate instance: a registry name, operand qubits and parameters.

    ``qubits`` are global qubit indices in operand order (controls first for
    controlled gates).  Matrices are produced lazily via :func:`gate_matrix`
    so circuits stay cheap to build, copy and serialise.  A gate has no
    ``__dict__``, and :func:`make_gate` shares every parameterless one.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        d = GATE_DEFS.get(self.name)
        if d is None:
            raise KeyError(f"unknown gate {self.name!r}")
        if len(self.qubits) != d.num_qubits:
            raise ValueError(
                f"gate {self.name!r} expects {d.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(self.params) != d.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {d.num_params} params, "
                f"got {len(self.params)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate operand in {self.name} {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_diagonal(self) -> bool:
        return GATE_DEFS[self.name].diagonal

    @property
    def is_clifford(self) -> bool:
        """True when this gate normalises the Pauli group (any params)."""
        return GATE_DEFS[self.name].clifford

    @property
    def num_controls(self) -> int:
        return GATE_DEFS[self.name].num_controls

    @property
    def target_qubits(self) -> Tuple[int, ...]:
        return self.qubits[self.num_controls :]

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.name, self.params)

    def remap(self, mapping: Dict[int, int]) -> "Gate":
        """Return a copy with operand qubits renamed through ``mapping``."""
        return make_gate(self.name, [mapping[q] for q in self.qubits], self.params)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        p = "(" + ",".join(f"{x:g}" for x in self.params) + ")" if self.params else ""
        return f"{self.name}{p} {list(self.qubits)}"


#: Entries kept by :func:`shared_gate_matrix` (least recently used go
#: first): a long-lived process fed fresh angles must not grow one entry
#: per distinct ``(name, params)`` forever.
MATRIX_CACHE_MAX = 4096


@lru_cache(maxsize=MATRIX_CACHE_MAX)
def _cached_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    d = GATE_DEFS.get(name)
    if d is None:
        raise KeyError(f"unknown gate {name!r}")
    m = np.asarray(d.factory(*params), dtype=np.complex128)
    m.setflags(write=False)
    return m


def shared_gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """The cached unitary itself: **read-only**, shared by every caller.

    For code that only reads the matrix (plan binding looks up thousands
    per batch); :func:`gate_matrix` is the copying form.

    >>> shared_gate_matrix("h") is shared_gate_matrix("h")
    True
    >>> shared_gate_matrix("h").flags.writeable
    False
    """
    return _cached_matrix(name, tuple(float(p) for p in params))


@lru_cache(maxsize=None)
def gate_permutation(name: str) -> Optional[Tuple[int, ...]]:
    """``s`` with ``matrix[a, s[a]] == 1`` when the parameter-free gate
    ``name`` is a 0/1 permutation matrix — applying it only reorders
    amplitudes; ``None`` for every other gate.

    >>> gate_permutation("cx"), gate_permutation("h"), gate_permutation("cy")
    ((0, 3, 2, 1), None, None)
    """
    if GATE_DEFS[name].num_params:
        return None
    m = shared_gate_matrix(name)
    if not ((m == 0) | (m == 1)).all():
        return None
    return tuple(int(j) for j in m.real.argmax(axis=1))


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary for gate ``name`` with ``params``: a fresh,
    caller-owned array (the construction itself is cached)."""
    return shared_gate_matrix(name, params).copy()


#: Parameterless gates kept by :func:`make_gate`, one per name and
#: operands (least recently used go first), so wide registers stay bounded.
GATE_CACHE_MAX = 4096
_shared_gate = lru_cache(maxsize=GATE_CACHE_MAX)(Gate)


def make_gate(name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> Gate:
    """The validated gate, operands ``int`` and parameters ``float``.  A
    parameterless gate is one shared instance per name and operands (a
    raising call is never cached); one with parameters is built fresh.

    >>> make_gate("cx", [0, 1]) is make_gate("cx", (0, 1))
    True
    """
    qubits, params = tuple(map(int, qubits)), tuple(map(float, params))
    if params:
        return Gate(name, qubits, params)
    return _shared_gate(name, qubits)
