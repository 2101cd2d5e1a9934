"""Pauli observable tests against dense operator construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.sv.pauli import energy, expectations, pauli_expectation
from repro.sv.simulator import StateVectorSimulator, random_state, zero_state

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(term: str) -> np.ndarray:
    """Kron expansion; term[q] acts on qubit q (qubit 0 = LSB)."""
    op = np.eye(1, dtype=complex)
    for c in reversed(term.upper()):  # highest qubit leftmost in kron
        op = np.kron(op, PAULIS[c])
    return op


class TestAgainstDense:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        term=st.text(alphabet="IXYZ", min_size=4, max_size=4),
    )
    def test_matches_dense(self, seed, term):
        state = random_state(4, seed=seed)
        got = pauli_expectation(state, term, 4)
        want = float(np.real(np.conj(state) @ dense_pauli(term) @ state))
        assert got == pytest.approx(want, abs=1e-10)

    def test_z_on_zero_state(self):
        assert pauli_expectation(zero_state(3), "ZII", 3) == pytest.approx(1.0)
        assert pauli_expectation(zero_state(3), "ZZZ", 3) == pytest.approx(1.0)

    def test_x_on_plus_state(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        sim = StateVectorSimulator(2)
        sim.run(qc)
        assert pauli_expectation(sim.state, "XI", 2) == pytest.approx(1.0)
        assert pauli_expectation(sim.state, "IX", 2) == pytest.approx(0.0)

    def test_y_eigenstate(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.s(0)  # S H |0> = |+i>
        sim = StateVectorSimulator(1)
        sim.run(qc)
        assert pauli_expectation(sim.state, "Y", 1) == pytest.approx(1.0)

    def test_dict_form(self):
        state = zero_state(4)
        assert pauli_expectation(state, {1: "Z", 3: "Z"}, 4) == pytest.approx(1.0)

    def test_ghz_correlations(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2)
        sim = StateVectorSimulator(3)
        sim.run(qc)
        assert pauli_expectation(sim.state, "ZZI", 3) == pytest.approx(1.0)
        assert pauli_expectation(sim.state, "ZII", 3) == pytest.approx(0.0)
        assert pauli_expectation(sim.state, "XXX", 3) == pytest.approx(1.0)


class TestEnergy:
    def test_ising_energy(self):
        # H = -Z0 Z1 - Z1 Z2 on |000>: energy -2.
        ham = [(-1.0, "ZZI"), (-1.0, "IZZ")]
        assert energy(zero_state(3), ham, 3) == pytest.approx(-2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pauli_expectation(zero_state(2), "Z", 2)  # wrong length
        with pytest.raises(ValueError):
            pauli_expectation(zero_state(2), "QZ", 2)  # bad letter
        with pytest.raises(ValueError):
            pauli_expectation(zero_state(2), {5: "Z"}, 2)  # out of range
        with pytest.raises(ValueError):
            pauli_expectation(np.zeros(3, dtype=complex), "ZZ", 2)

    @pytest.mark.parametrize("op", [1, None])
    def test_map_op_that_is_not_a_string(self, op):
        # Used to escape as AttributeError from ``op.upper()``.
        with pytest.raises(ValueError, match=f"bad Pauli {op!r}"):
            expectations(zero_state(2), [{0: op}], 2)


def pauli_expectation_reference(state, term, num_qubits):
    """Oracle for ``pauli_expectation``: the body as first written, its
    sign vector and flip index built on every call.  The production
    function keeps them per ``(term, n)`` and reverses axes instead of
    indexing; its bits must not move."""
    from repro.sv.pauli import _normalise

    ops = _normalise(term, num_qubits)
    idx = np.arange(state.size, dtype=np.int64)
    xmask = 0
    phase = np.ones(state.size, dtype=np.complex128)
    for q, c in ops.items():
        bit = (idx >> q) & 1
        if c == "Z":
            phase *= 1.0 - 2.0 * bit
        elif c == "X":
            xmask |= 1 << q
        else:
            xmask |= 1 << q
            phase *= -1j * (1.0 - 2.0 * bit)
    if xmask == 0:
        return float(np.real(np.sum(phase * np.abs(state) ** 2)))
    flipped = state[idx ^ xmask]
    return float(np.real(np.sum(np.conj(state) * phase * flipped)))


class TestKeptMasks:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 6, 17]),
        seed=st.integers(0, 999),
        data=st.data(),
    )
    def test_property_kept_masks_keep_the_bits(self, n, seed, data):
        state = random_state(n, seed=seed)
        qubits = data.draw(st.permutations(range(n)))
        ops = data.draw(st.lists(st.sampled_from("IXYZxyz"), min_size=n,
                                 max_size=n))
        # Sparse maps in a drawn order: factors multiply in that order.
        for term in ("".join(ops).upper(), dict(zip(qubits, ops))):
            want = pauli_expectation_reference(state, term, n)
            for _ in range(2):  # built, then kept
                got = pauli_expectation(state, term, n)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_seventeen_terms_cycled_at_fourteen_qubits_stay_kept(
        self, monkeypatch
    ):
        # A job's observable set larger than a count-bounded cache: the
        # masks are built on the first pass and kept for every later one.
        import repro.sv.pauli as pauli_module

        n = 14
        terms = [{q: "Z", (q + 1) % n: "X"} for q in range(n)]
        terms += [{0: "Y"}, {3: "Z", 9: "Z"}, {5: "X", 11: "Y"}]
        assert len(terms) == 17
        built = []
        real = pauli_module._build_masks

        def build(factors, num_qubits):
            built.append(factors)
            return real(factors, num_qubits)

        monkeypatch.setattr(pauli_module, "_build_masks", build)
        state = random_state(n, seed=4)
        first = expectations(state, terms, n)
        builds = len(built)
        for _ in range(3):
            assert expectations(state, terms, n) == first
        assert len(built) == builds <= 17

    def test_threads_cycling_terms_keep_the_budget_and_the_bits(self):
        # Eight threads cycle more terms than 24 MiB holds at 14 qubits,
        # so entries are kept and evicted concurrently: every value must
        # match a lone thread's, and the bytes charged must still be the
        # kept entries' own, within the budget.
        import sys
        import threading

        import repro.sv.pauli as pauli_module

        n, workers = 14, 8
        # 182 distinct terms of 256 KiB: 45 MiB, against 24 kept.
        terms = [{q: "Z", (q + k) % n: "Y"} for k in range(1, n)
                 for q in range(n)]
        state = random_state(n, seed=9)
        want = expectations(state, terms, n)
        got, errors = [None] * workers, []

        def worker(i):
            try:
                got[i] = expectations(state, terms[i:] + terms[:i], n)
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        for i, values in enumerate(got):
            assert values == want[i:] + want[:i]
        kept = pauli_module._MASKS.values()
        held = sum(max(phase.nbytes, 4096) for phase, _ in kept)
        assert pauli_module._masks_held == held <= pauli_module._MASK_BUDGET
