"""Flat (non-hierarchical) state-vector simulator.

The reference engine every other component is validated against: applies
gates one by one to the full ``2^n`` state.  Also provides measurement
utilities (probabilities, sampling, expectation values) that the paper's
pipeline omits but any downstream user needs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from .backend import ExecutionBackend, resolve_backend
from .layout import extract_bits

__all__ = [
    "StateVectorSimulator",
    "zero_state",
    "random_state",
    "sample_counts",
]


def zero_state(num_qubits: int) -> np.ndarray:
    """``|0...0>`` as a complex128 array of length ``2^num_qubits``.

    >>> zero_state(2)
    array([1.+0.j, 0.+0.j, 0.+0.j, 0.+0.j])
    """
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def random_state(num_qubits: int, seed: int = 0) -> np.ndarray:
    """Haar-ish random normalised state (Gaussian components).

    >>> v = random_state(3, seed=42)
    >>> v.shape, round(float(np.linalg.norm(v)), 12)
    ((8,), 1.0)
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(
        1 << num_qubits
    )
    v /= np.linalg.norm(v)
    return v.astype(np.complex128)


def sample_counts(
    state: np.ndarray, shots: int, seed: int = 0
) -> Dict[int, int]:
    """Sample ``shots`` measurement outcomes from a state vector.

    Returns ``{basis_index: count}`` over the sampled outcomes only
    (indices are little-endian: bit ``k`` of the index is qubit ``k``).
    Sampling is seeded and deterministic; probabilities are renormalised
    so accumulated float error in ``|amplitude|^2`` cannot bias draws.

    >>> state = zero_state(2)
    >>> sample_counts(state, shots=5, seed=1)
    {0: 5}
    >>> plus = np.full(2, 2**-0.5, dtype=np.complex128)  # |+>
    >>> sum(sample_counts(plus, shots=100, seed=2).values())
    100
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    p = np.abs(np.asarray(state)) ** 2
    p = p / p.sum()
    outcomes = rng.choice(p.size, size=shots, p=p)
    vals, counts = np.unique(outcomes, return_counts=True)
    return dict(zip(vals.tolist(), counts.tolist()))


class StateVectorSimulator:
    """Owns a full state vector and applies circuits to it.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> sim = StateVectorSimulator(2)
    >>> _ = sim.run(QuantumCircuit(2).h(0).cx(0, 1))      # Bell pair
    >>> [round(float(p), 3) for p in sim.probabilities()]
    [0.5, 0.0, 0.0, 0.5]
    >>> counts = sim.sample(shots=8, seed=0)              # seeded
    >>> sum(counts.values()), set(counts) <= {0, 3}       # only |00>, |11>
    (8, True)
    >>> round(sim.expectation_z(0), 12)
    0.0

    Parameters
    ----------
    num_qubits:
        Register width.
    initial_state:
        Optional starting state (copied); defaults to ``|0...0>``.
    backend:
        Execution backend every gate runs on (``apply_gate_flat``): an
        :class:`~repro.sv.backend.ExecutionBackend`, a name, or ``None``
        to follow ``REPRO_BACKEND``.
    threads:
        Worker count for a backend resolved by name/environment.
    """

    def __init__(
        self,
        num_qubits: int,
        initial_state: Optional[np.ndarray] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        threads: Optional[int] = None,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        if initial_state is None:
            self.state = zero_state(num_qubits)
        else:
            initial_state = np.asarray(initial_state, dtype=np.complex128)
            if initial_state.shape != (1 << num_qubits,):
                raise ValueError("initial state has wrong length")
            self.state = initial_state.copy()
        self.backend = resolve_backend(backend, threads)
        self.gates_applied = 0

    # -- evolution ---------------------------------------------------------

    def run(self, circuit: QuantumCircuit) -> np.ndarray:
        """Apply every gate of ``circuit``; returns the (live) state."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit width {circuit.num_qubits} != simulator width "
                f"{self.num_qubits}"
            )
        for g in circuit:
            self.backend.apply_gate_flat(self.state, g, self.num_qubits)
        self.gates_applied += len(circuit)
        return self.state

    def reset(self) -> None:
        self.state = zero_state(self.num_qubits)
        self.gates_applied = 0

    # -- measurement utilities ----------------------------------------------

    def probabilities(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Measurement probabilities of ``qubits`` (default: all, little-endian)."""
        p = np.abs(self.state) ** 2
        if qubits is None:
            return p
        qubits = list(qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"qubits must be distinct, got {qubits}")
        if any(not 0 <= q < self.num_qubits for q in qubits):
            raise ValueError(
                f"qubits {qubits} out of range for {self.num_qubits}-qubit "
                f"register"
            )
        keys = extract_bits(np.arange(self.state.size, dtype=np.int64), qubits)
        out = np.zeros(1 << len(qubits))
        np.add.at(out, keys, p)
        return out

    def sample(self, shots: int, seed: int = 0) -> Dict[int, int]:
        """Sample measurement outcomes of the full register.

        Delegates to :func:`sample_counts` on the current state.
        """
        return sample_counts(self.state, shots, seed)

    def expectation_z(self, qubit: int) -> float:
        """<Z_qubit> of the current state."""
        idx = np.arange(self.state.size, dtype=np.int64)
        signs = 1.0 - 2.0 * ((idx >> qubit) & 1)
        return float(np.real(np.sum(signs * np.abs(self.state) ** 2)))

    def fidelity(self, other: np.ndarray) -> float:
        """|<self|other>|^2 against another state vector."""
        other = np.asarray(other, dtype=np.complex128)
        if other.shape != self.state.shape:
            raise ValueError("state length mismatch")
        return float(np.abs(np.vdot(self.state, other)) ** 2)
