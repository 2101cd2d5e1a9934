"""Contract fragment tensors back into amplitudes, probabilities, counts.

Two recombination paths, both over the bond structure a
:class:`~repro.cut.cutter.CutPlan` defines:

**Exact amplitude contraction** (the default).  Indexing the upstream
fragment's state by the cut wire's computational bit and preparing the
downstream wire in that bit resolves the severed identity directly::

    psi(x) = sum_{b in {0,1}^k}  prod_f  A_f(x_f ; b|_f)

where ``A_f`` is fragment ``f``'s state reorganised into a ``(2^bonds,
2^free)`` *bond tensor* (:func:`bond_tensor`) and ``x_f`` the output
bits whose final wire lives in ``f``.  ``2^k`` terms, exact to float
rounding — this is what pins recombination to the uncut executor at
1e-10.  :func:`recombine_state` materialises ``psi`` (dense widths
only); :func:`recombine_expectations` contracts Pauli matrix elements
without ever materialising it, and :func:`recombine_counts` samples —
through the *same* seeded :func:`~repro.sv.simulator.sample_counts`
path as the uncut pipeline up to ``REPRO_CUT_DENSE_WIDTH``, and via a
sequential per-fragment conditional sampler (Gram-matrix environments,
exact but a different seeded stream) beyond it.

**Quasiprobability recombination** (:func:`quasi_probabilities`).  The
textbook CutQC sum ``p(x) = 2^-k sum_{O in {I,X,Y,Z}^k} prod_f
T_f^O(x_f)`` from measured probabilities of the 4-basis / 4-state
variant set — kept as an independent validation path for the identity
``rho = (1/2) sum_O Tr[O rho] O`` that cutting rests on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..config import env
from ..sv.layout import extract_bits, spread_bits
from ..sv.pauli import PauliTerm, _normalise
from ..sv.simulator import sample_counts
from .cutter import CutError, CutPlan
from .evaluate import FragmentTensor
from .fragments import MEAS_BASES, PREP_STATES

__all__ = [
    "dense_recombine_width",
    "bond_tensor",
    "recombine_state",
    "recombine_probabilities",
    "recombine_counts",
    "recombine_expectations",
    "quasi_probabilities",
]

# Downstream reconstruction coefficients of each bond operator over the
# preparation states: O = sum_s coeff * |s><s|  (X = 2|+><+| - |0><0| -
# |1><1|, etc.).  Upstream, O's measured eigenvalue is +1/-1 by outcome
# bit except for I (always +1).
_PREP_COEFFS: Dict[str, Dict[str, float]] = {
    "I": {"zero": 1.0, "one": 1.0},
    "Z": {"zero": 1.0, "one": -1.0},
    "X": {"plus": 2.0, "zero": -1.0, "one": -1.0},
    "Y": {"plus_i": 2.0, "zero": -1.0, "one": -1.0},
}


def dense_recombine_width() -> int:
    """Widest circuit recombined via a dense ``2^n`` state.

    ``REPRO_CUT_DENSE_WIDTH`` (default 26 = a 1 GiB state): at or below it,
    counts come from the materialised state through the exact
    :func:`~repro.sv.simulator.sample_counts` path the uncut pipeline
    uses; above it, the streaming per-fragment sampler takes over.

    >>> dense_recombine_width()
    26
    """
    return env("REPRO_CUT_DENSE_WIDTH")


def _bond_cuts(fragment) -> Tuple[int, ...]:
    """Bond order of a fragment: incoming cuts first, then outgoing."""
    return fragment.in_cuts + fragment.out_cuts


def bond_tensor(plan: CutPlan, tensor: FragmentTensor) -> np.ndarray:
    """Reorganise amplitude-mode states into a ``(2^bonds, 2^free)`` array.

    Row index bit ``i`` is bond ``i`` of the fragment (incoming cuts
    first, ``cut_id`` order, then outgoing): incoming bits select the
    preparation variant, outgoing bits index the cut qubit's
    computational value in the state.  Column index bits follow
    ``fragment.terminal_qubits`` (ascending global order).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> from repro.cut.evaluate import evaluate_fragments
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> plan = plan_from_assignment(qc, [0, 1], max_width=2)
    >>> tensors, _ = evaluate_fragments(plan)
    >>> a = bond_tensor(plan, tensors[0])     # H on the cut wire
    >>> a.shape, [float(round(abs(x), 3)) for x in a[:, 0]]
    ((2, 1), [0.707, 0.707])
    """
    frag = tensor.fragment
    local = {q: i for i, q in enumerate(frag.qubits)}
    free_pos = [local[q] for q in frag.terminal_qubits]
    out_pos = [local[plan.cuts[c].qubit] for c in frag.out_cuts]
    nin, nout, nfree = len(frag.in_cuts), len(out_pos), len(free_pos)
    bases = ("I",) * nout
    free_idx = spread_bits(np.arange(1 << nfree, dtype=np.int64), free_pos)
    out = np.empty((1 << (nin + nout), 1 << nfree), dtype=np.complex128)
    for bi in range(1 << nin):
        preps = tuple(PREP_STATES[(bi >> i) & 1] for i in range(nin))
        try:
            state = tensor.states[(preps, bases)]
        except KeyError:
            raise CutError(
                f"fragment {frag.index}: missing amplitude variant "
                f"{preps} (tensors evaluated in quasi mode?)"
            ) from None
        for bo in range(1 << nout):
            offset = int(spread_bits(np.array([bo]), out_pos)[0])
            out[bi | (bo << nin)] = state[free_idx + offset]
    return out


def _contraction_arrays(
    plan: CutPlan, tensors: Sequence[FragmentTensor]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Bond tensors plus per-fragment global-bond projection tables.

    ``projs[f][b]`` maps a global bond assignment ``b`` (bit ``c`` =
    value of cut ``c``) to fragment ``f``'s local bond-row index.
    """
    if len(tensors) != plan.num_fragments:
        raise CutError(
            f"{len(tensors)} tensors for {plan.num_fragments} fragments"
        )
    k = plan.num_cuts
    if k > 20:
        raise CutError(
            f"contracting 2^{k} bond assignments is past the supported "
            f"20 cuts — find a lower-cut plan (raise max_width, or pass "
            f"max_cuts to reject expensive plans up front)"
        )
    assignments = np.arange(1 << k, dtype=np.int64)
    mats = [bond_tensor(plan, t) for t in tensors]
    projs = [
        extract_bits(assignments, _bond_cuts(t.fragment)) for t in tensors
    ]
    return mats, projs


def _compact_positions(plan: CutPlan) -> List[int]:
    """Global qubit of each compact-state bit (fragment-major order)."""
    return [q for f in plan.fragments for q in f.terminal_qubits]


def _compact_state(plan: CutPlan, tensors: Sequence[FragmentTensor]) -> np.ndarray:
    """The recombined state over touched qubits only (compact order)."""
    mats, projs = _contraction_arrays(plan, tensors)
    k = plan.num_cuts
    size = 1 << sum(len(f.terminal_qubits) for f in plan.fragments)
    compact = np.zeros(size, dtype=np.complex128)
    for b in range(1 << k):
        term = np.ones(1, dtype=np.complex128)
        for mat, proj in zip(mats, projs):
            row = mat[proj[b]]
            term = (row[:, None] * term[None, :]).ravel()
        compact += term
    return compact


def recombine_state(
    plan: CutPlan, tensors: Sequence[FragmentTensor]
) -> np.ndarray:
    """The full ``2^n`` state vector of the uncut circuit.

    Exact bond contraction (``2^k`` terms); refuses to materialise
    beyond :func:`dense_recombine_width` — that's the regime cutting
    exists for, where callers want counts or expectations instead.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> from repro.cut.evaluate import evaluate_fragments
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> plan = plan_from_assignment(qc, [0, 1], max_width=2)
    >>> tensors, _ = evaluate_fragments(plan)
    >>> np.round(recombine_state(plan, tensors), 8)      # Bell state
    array([0.70710678+0.j, 0.        +0.j, 0.        +0.j, 0.70710678+0.j])
    """
    n = plan.circuit.num_qubits
    if n > dense_recombine_width():
        raise CutError(
            f"materialising 2^{n} amplitudes exceeds the dense recombine "
            f"width ({dense_recombine_width()}); request counts or "
            f"expectations instead, or raise REPRO_CUT_DENSE_WIDTH"
        )
    compact = _compact_state(plan, tensors)
    positions = _compact_positions(plan)
    full = np.zeros(1 << n, dtype=np.complex128)
    full[spread_bits(np.arange(compact.size, dtype=np.int64), positions)] = (
        compact
    )
    return full


def recombine_probabilities(
    plan: CutPlan, tensors: Sequence[FragmentTensor]
) -> np.ndarray:
    """Outcome probabilities ``|psi(x)|^2`` over all ``2^n`` indices.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> from repro.cut.evaluate import evaluate_fragments
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> plan = plan_from_assignment(qc, [0, 1], max_width=2)
    >>> tensors, _ = evaluate_fragments(plan)
    >>> np.round(recombine_probabilities(plan, tensors), 12)
    array([0.5, 0. , 0. , 0.5])
    """
    return np.abs(recombine_state(plan, tensors)) ** 2


def recombine_counts(
    plan: CutPlan,
    tensors: Sequence[FragmentTensor],
    shots: int,
    seed: int = 0,
    *,
    dense_width: int = None,
) -> Dict[int, int]:
    """Seeded measurement counts ``{basis_index: count}``.

    At or below ``dense_width`` (default :func:`dense_recombine_width`) the
    state is materialised and sampled through the *identical*
    :func:`~repro.sv.simulator.sample_counts` call the uncut pipeline
    makes — same seed, same draws, exact distribution agreement.  Wider
    circuits stream: fragments are sampled in topological order, each
    outcome conditioning the next fragment through Gram-matrix
    environments — still exact and seeded, but a different random
    stream than the dense path (documented in ``docs/cutting.md``).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> from repro.cut.evaluate import evaluate_fragments
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> plan = plan_from_assignment(qc, [0, 1], max_width=2)
    >>> tensors, _ = evaluate_fragments(plan)
    >>> counts = recombine_counts(plan, tensors, shots=64, seed=7)
    >>> sorted(counts) == [0, 3] and sum(counts.values()) == 64
    True
    """
    n = plan.circuit.num_qubits
    limit = dense_recombine_width() if dense_width is None else dense_width
    if n <= limit:
        return sample_counts(recombine_state(plan, tensors), shots, seed)
    return _stream_counts(plan, tensors, shots, seed)


def _stream_counts(
    plan: CutPlan,
    tensors: Sequence[FragmentTensor],
    shots: int,
    seed: int,
) -> Dict[int, int]:
    """Exact conditional sampling, one fragment at a time.

    With the suffix environment ``E_j[b, b'] = prod_{i > j}
    G_i[b|_i, b'|_i]`` (``G_i`` the fragment Gram matrix over bond
    rows), the joint probability of outcomes for fragments ``<= j``
    is ``sum_{b, b'} T(b) conj(T(b')) E_j[b, b']`` where ``T``
    accumulates the chosen rows — so fragment ``j``'s conditional
    distribution never needs more than ``4^k * 2^width_j`` work, and
    no ``2^n`` object ever exists.  Shots are grouped by unique prefix,
    so cost scales with distinct outcomes, not shots.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    k = plan.num_cuts
    if k > 12:
        raise CutError(
            f"streaming sampler environment is (2^k)^2 = 4^{k} entries; "
            f"{k} cuts is past the supported 12 — find a lower-cut plan"
        )
    mats, projs = _contraction_arrays(plan, tensors)
    nb = 1 << k
    rng = np.random.default_rng(seed)

    # G[beta, beta'] = sum_x A(beta, x) conj(A(beta', x)).
    suffixes: List[np.ndarray] = [None] * len(mats)
    suffix = np.ones((nb, nb), dtype=np.complex128)
    for j in range(len(mats) - 1, -1, -1):
        suffixes[j] = suffix
        gram = mats[j] @ mats[j].conj().T
        suffix = suffix * gram[np.ix_(projs[j], projs[j])]

    groups: Dict[Tuple[int, ...], Tuple[np.ndarray, int]] = {
        (): (np.ones(nb, dtype=np.complex128), shots)
    }
    for j, mat in enumerate(mats):
        rows = mat[projs[j], :]  # (2^k, 2^free_j)
        suffix = suffixes[j]
        next_groups: Dict[Tuple[int, ...], Tuple[np.ndarray, int]] = {}
        for prefix, (partial, m) in groups.items():
            weighted = rows * partial[:, None]
            p = np.einsum(
                "bx,bc,cx->x", weighted, suffix, np.conj(weighted)
            ).real
            p = np.clip(p, 0.0, None)
            p /= p.sum()
            draws = rng.choice(p.size, size=m, p=p)
            vals, cnts = np.unique(draws, return_counts=True)
            for x, c in zip(vals, cnts):
                next_groups[prefix + (int(x),)] = (
                    partial * rows[:, x],
                    int(c),
                )
        groups = next_groups

    counts: Dict[int, int] = {}
    for prefix, (_, m) in groups.items():
        index = 0
        for f, x in zip(plan.fragments, prefix):
            index |= int(
                spread_bits(np.array([x]), f.terminal_qubits)[0]
            )
        counts[index] = counts.get(index, 0) + m
    return dict(sorted(counts.items()))


def recombine_expectations(
    plan: CutPlan,
    tensors: Sequence[FragmentTensor],
    observables: Sequence[PauliTerm],
) -> List[float]:
    """``<psi| P |psi>`` per observable, without materialising ``psi``.

    Pauli strings factor across fragments (each output qubit's final
    wire lives in exactly one), so each term costs one ``(2^bonds,
    2^bonds)`` matrix-element block per fragment plus a ``4^k``
    contraction — this is how 30+ qubit cut circuits report energies.
    A qubit no fragment owns is still ``|0>``: ``Z`` contributes ``+1``,
    ``X``/``Y`` annihilate the expectation.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> from repro.cut.evaluate import evaluate_fragments
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> plan = plan_from_assignment(qc, [0, 1], max_width=2)
    >>> tensors, _ = evaluate_fragments(plan)
    >>> [round(v, 12) for v in
    ...  recombine_expectations(plan, tensors, ["ZZ", "XX", "ZI"])]
    [1.0, 1.0, 0.0]
    """
    n = plan.circuit.num_qubits
    mats, projs = _contraction_arrays(plan, tensors)
    owner = {
        q: i for i, f in enumerate(plan.fragments) for q in f.terminal_qubits
    }
    values: List[float] = []
    for term in observables:
        ops = _normalise(term, n)
        idle_factor = 1.0
        for q in ops:
            if q not in owner:
                if ops[q] in ("X", "Y"):
                    idle_factor = 0.0
                # <0|Z|0> = 1: no change.
        if idle_factor == 0.0:
            values.append(0.0)
            continue
        big = np.ones((1 << plan.num_cuts,) * 2, dtype=np.complex128)
        for i, (mat, proj) in enumerate(zip(mats, projs)):
            frag = plan.fragments[i]
            local_ops = {
                pos: ops[q]
                for pos, q in enumerate(frag.terminal_qubits)
                if q in ops
            }
            block = _pauli_block(mat, local_ops)
            big *= block[np.ix_(proj, proj)]
        values.append(float(big.sum().real) * idle_factor)
    return values


def _pauli_block(mat: np.ndarray, ops: Dict[int, str]) -> np.ndarray:
    """``M[b', b] = <A(b')| P |A(b)>`` over a fragment's free qubits.

    Same sign/permutation technique as
    :func:`repro.sv.pauli.pauli_expectation`, applied rowwise.
    """
    size = mat.shape[1]
    idx = np.arange(size, dtype=np.int64)
    xmask = 0
    phase = np.ones(size, dtype=np.complex128)
    for pos, c in ops.items():
        bit = (idx >> pos) & 1
        if c == "Z":
            phase *= 1.0 - 2.0 * bit
        elif c == "X":
            xmask |= 1 << pos
        else:  # Y
            xmask |= 1 << pos
            phase *= -1j * (1.0 - 2.0 * bit)
    applied = mat[:, idx ^ xmask] * phase[None, :]
    return mat.conj() @ applied.T


def quasi_probabilities(
    plan: CutPlan, tensors: Sequence[FragmentTensor]
) -> np.ndarray:
    """CutQC quasiprobability recombination from ``quasi``-mode tensors.

    ``p(x) = 2^-k sum_{O in {I,X,Y,Z}^k} prod_f T_f^O(x_f)`` — each
    fragment term combines measured outcome probabilities with the
    per-cut eigenvalue signs (upstream) and preparation-state
    reconstruction coefficients (downstream).  All ``16^k`` logical
    terms are visited, none cancelled analytically: this is the
    validation oracle for the decomposition itself.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> from repro.cut.evaluate import evaluate_fragments
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> plan = plan_from_assignment(qc, [0, 1], max_width=2)
    >>> tensors, _ = evaluate_fragments(plan, mode="quasi")
    >>> np.round(quasi_probabilities(plan, tensors), 12)
    array([0.5, 0. , 0. , 0.5])
    """
    n = plan.circuit.num_qubits
    if n > dense_recombine_width():
        raise CutError(
            f"quasiprobability recombination materialises 2^{n} "
            f"probabilities; beyond the dense width use the amplitude path"
        )
    if len(tensors) != plan.num_fragments:
        raise CutError(
            f"{len(tensors)} tensors for {plan.num_fragments} fragments"
        )
    k = plan.num_cuts
    tables = [_quasi_table(plan, t) for t in tensors]
    bond_lists = [_bond_cuts(t.fragment) for t in tensors]
    sizes = [1 << len(f.terminal_qubits) for f in plan.fragments]
    compact = np.zeros(int(np.prod([1] + sizes)), dtype=np.float64)
    for flat in range(4 ** k):
        assignment = [
            MEAS_BASES[(flat >> (2 * c)) & 3] for c in range(k)
        ]
        term = np.ones(1, dtype=np.float64)
        for table, bonds in zip(tables, bond_lists):
            key = tuple(assignment[c] for c in bonds)
            vec = table[key]
            term = (vec[:, None] * term[None, :]).ravel()
        compact += term
    compact /= float(2 ** k)
    positions = _compact_positions(plan)
    full = np.zeros(1 << n, dtype=np.float64)
    full[spread_bits(np.arange(compact.size, dtype=np.int64), positions)] = (
        compact
    )
    return full


def _quasi_table(
    plan: CutPlan, tensor: FragmentTensor
) -> Dict[Tuple[str, ...], np.ndarray]:
    """Per bond-operator assignment, the fragment's ``T_f^O`` vector."""
    from itertools import product

    frag = tensor.fragment
    local = {q: i for i, q in enumerate(frag.qubits)}
    free_pos = [local[q] for q in frag.terminal_qubits]
    out_pos = [local[plan.cuts[c].qubit] for c in frag.out_cuts]
    nin, nout, nfree = len(frag.in_cuts), len(out_pos), len(free_pos)
    free_idx = spread_bits(np.arange(1 << nfree, dtype=np.int64), free_pos)

    table: Dict[Tuple[str, ...], np.ndarray] = {}
    for bond_ops in product(MEAS_BASES, repeat=nin + nout):
        in_ops, out_ops = bond_ops[:nin], bond_ops[nin:]
        phys = tuple("Z" if o == "I" else o for o in out_ops)
        vec = np.zeros(1 << nfree, dtype=np.float64)
        for preps in product(PREP_STATES, repeat=nin):
            coeff = 1.0
            for o, s in zip(in_ops, preps):
                coeff *= _PREP_COEFFS[o].get(s, 0.0)
            if coeff == 0.0:
                continue
            probs = np.abs(tensor.states[(preps, phys)]) ** 2
            for m in range(1 << nout):
                sign = 1.0
                for j, o in enumerate(out_ops):
                    if o != "I" and (m >> j) & 1:
                        sign = -sign
                offset = int(spread_bits(np.array([m]), out_pos)[0])
                vec += coeff * sign * probs[free_idx + offset]
        table[bond_ops] = vec
    return table
